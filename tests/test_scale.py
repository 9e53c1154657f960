"""Beyond-RAM scale: mmap-backed stores and the external-memory builder.

Two differential contracts are pinned here:

* an mmap-opened store is **indistinguishable** from a bytes-loaded one —
  same ``raw()``/``buffers()`` content, same ``to_bytes()``, same
  ``batch_query``/``matrix_into`` answers under every kernel tier, for
  every registered scheme spec, and for catalog members opened as
  zero-copy sub-views of one mapped container;
* the streaming builder (:mod:`repro.scale.build`) writes **byte-identical**
  files to ``LabelStore.encode_tree(...).save(...)`` while spilling packed
  runs to disk, including against the legacy fixtures in ``tests/data``.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager

import pytest

from repro import kernels
from repro.core.registry import make_scheme_from_spec
from repro.generators.workloads import (
    WORKLOADS,
    khop_local_pairs,
    make_tree,
    pair_workload,
    sibling_pairs,
    uniform_pairs,
)
from repro.oracles.exact_oracle import TreeDistanceOracle
from repro.scale import (
    build_store_in_memory,
    build_store_streaming,
    current_rss_bytes,
    peak_rss_bytes,
)
from repro.store import LabelStore, QueryEngine, StoreError
from repro.store.query_engine import QueryEngine as _QE  # noqa: F401 - re-export check

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

#: every registered scheme, parameterised where construction needs it
ALL_SPECS = [
    "hld-fixed",
    "freedman",
    "freedman-no-accumulators",
    "freedman-no-binarize",
    "freedman-no-fragments",
    "alstrup",
    "separator",
    "naive-list",
    "k-distance:k=3",
    "approximate:epsilon=0.5",
]

TIERS = ["native", "python"]


@pytest.fixture(autouse=True)
def _fresh_probe():
    kernels.reset()
    yield
    kernels.reset()


@contextmanager
def forced_tier(tier: str):
    """Force ``REPRO_KERNELS=tier`` for the duration."""
    old = os.environ.get(kernels.ENV_VAR)
    os.environ[kernels.ENV_VAR] = tier
    kernels.reset()
    try:
        yield
    finally:
        if old is None:
            os.environ.pop(kernels.ENV_VAR, None)
        else:
            os.environ[kernels.ENV_VAR] = old
        kernels.reset()


def _saved_store(tmp_path, spec, n=80, seed=13):
    tree = make_tree("random", n, seed)
    scheme = make_scheme_from_spec(spec)
    store = LabelStore.encode_tree(scheme, tree)
    path = tmp_path / "store.bin"
    store.save(path)
    return tree, store, path


class TestMmapDifferential:
    """mmap-opened == bytes-loaded, bit for bit, under every tier."""

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_store_views_identical(self, tmp_path, spec):
        _, built, path = _saved_store(tmp_path, spec)
        loaded = LabelStore.load(path)
        mapped = LabelStore.open_mmap(path)
        assert mapped.mmap_backed and not loaded.mmap_backed
        assert mapped.n == loaded.n == built.n
        assert mapped.to_bytes() == loaded.to_bytes() == built.to_bytes()
        for node in range(mapped.n):
            assert bytes(mapped.raw(node)) == bytes(loaded.raw(node))
            assert mapped.bit_length(node) == loaded.bit_length(node)
        m_view, m_offs, m_lens = mapped.buffers()
        l_view, l_offs, l_lens = loaded.buffers()
        assert bytes(m_view) == bytes(l_view)
        assert list(m_offs) == list(l_offs)
        assert list(m_lens) == list(l_lens)

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("spec", ["freedman", "hld-fixed", "k-distance:k=3"])
    def test_queries_identical_per_tier(self, tmp_path, spec, tier):
        tree, _, path = _saved_store(tmp_path, spec)
        pairs = uniform_pairs(tree, 200, seed=5)
        nodes = list(range(0, tree.n, 7))
        with forced_tier(tier):
            from_ram = QueryEngine(LabelStore.load(path))
            from_map = QueryEngine(LabelStore.open_mmap(path))
            assert from_map.batch_query(pairs) == from_ram.batch_query(pairs)
            assert from_map.matrix_into(nodes) == from_ram.matrix_into(nodes)

    @pytest.mark.parametrize("name", ["freedman", "hld", "kdistance"])
    def test_legacy_fixture_mmap_round_trip(self, name):
        """The pinned legacy files answer identically through a mapping."""
        with open(os.path.join(DATA_DIR, "legacy_store_expected.json")) as handle:
            record = json.load(handle)[name]
        path = os.path.join(DATA_DIR, f"legacy_store_{name}.bin")
        store = LabelStore.open_mmap(path)
        assert store.mmap_backed
        assert store.n == record["n"]
        assert hashlib.sha256(store.to_bytes()).hexdigest() == record["sha256"]
        pairs = [tuple(pair) for pair in record["pairs"]]
        assert QueryEngine(store).batch_query(pairs) == record["answers"]

    def test_open_mmap_rejects_garbage(self, tmp_path):
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        with pytest.raises(StoreError):
            LabelStore.open_mmap(empty)
        bogus = tmp_path / "bogus.bin"
        bogus.write_bytes(b"not a store at all")
        with pytest.raises(StoreError):
            LabelStore.open_mmap(bogus)


class TestCatalogMmap:
    """Catalog members open as zero-copy sub-views of one mapping."""

    def _saved_catalog(self, tmp_path):
        from repro.api import DistanceIndex, IndexCatalog

        catalog = IndexCatalog()
        trees = {}
        for name, spec, seed in (
            ("core", "freedman", 3),
            ("fixed", "hld-fixed", 4),
            ("acl", "k-distance:k=3", 5),
        ):
            tree = make_tree("random", 60, seed)
            trees[name] = tree
            catalog.add(name, DistanceIndex.build(tree, spec))
        path = tmp_path / "forest.cat"
        catalog.save(path)
        return trees, path

    def test_members_share_the_mapping(self, tmp_path):
        from repro.api import IndexCatalog

        trees, path = self._saved_catalog(tmp_path)
        plain = IndexCatalog.load(path)
        mapped = IndexCatalog.load(path, mmap=True)
        for name, tree in trees.items():
            ram_index = plain.index(name)
            map_index = mapped.index(name)
            assert map_index.store.mmap_backed
            assert not ram_index.store.mmap_backed
            assert map_index.store.to_bytes() == ram_index.store.to_bytes()
            pairs = uniform_pairs(tree, 120, seed=11)
            assert [r.value for r in map_index.batch(pairs)] == [
                r.value for r in ram_index.batch(pairs)
            ]

    def test_catalog_round_trips_through_mmap(self, tmp_path):
        from repro.api import IndexCatalog

        _, path = self._saved_catalog(tmp_path)
        mapped = IndexCatalog.open_mmap(path)
        assert mapped.to_bytes() == path.read_bytes()

    def test_open_mmap_rejects_garbage(self, tmp_path):
        from repro.api import CatalogError, IndexCatalog

        empty = tmp_path / "empty.cat"
        empty.write_bytes(b"")
        with pytest.raises(CatalogError):
            IndexCatalog.open_mmap(empty)


class TestDistanceIndexMmap:
    def test_open_mmap_flag_and_stats(self, tmp_path):
        from repro.api import DistanceIndex

        tree = make_tree("random", 90, seed=2)
        index = DistanceIndex.build(tree, "freedman")
        path = tmp_path / "index.bin"
        index.save(path)
        mapped = DistanceIndex.open(path, mmap=True)
        plain = DistanceIndex.open(path)
        assert mapped.stats()["mmap"] is True
        assert plain.stats()["mmap"] is False
        pairs = uniform_pairs(tree, 100, seed=9)
        assert [r.value for r in mapped.batch(pairs)] == [
            r.value for r in plain.batch(pairs)
        ]


class TestStreamingBuild:
    """The external-memory pipeline writes the exact in-memory bytes."""

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_byte_identical_to_in_memory(self, tmp_path, spec):
        tree = make_tree("random", 300, seed=21)
        scheme = make_scheme_from_spec(spec)
        path = tmp_path / "streamed.bin"
        # a tiny run buffer forces several spills even at n=300
        stats = build_store_streaming(scheme, tree, path, run_bytes=1 << 16)
        reference = LabelStore.encode_tree(make_scheme_from_spec(spec), tree)
        assert path.read_bytes() == reference.to_bytes()
        assert stats["n"] == tree.n
        assert stats["file_bytes"] == path.stat().st_size

    def test_spills_runs_and_reports(self, tmp_path):
        tree = make_tree("random", 5000, seed=1)
        scheme = make_scheme_from_spec("freedman")
        path = tmp_path / "streamed.bin"
        seen = []
        stats = build_store_streaming(
            scheme,
            tree,
            path,
            run_bytes=1 << 16,
            progress=lambda done, total: seen.append((done, total)),
            progress_every=500,
        )
        assert stats["runs_spilled"] >= 1
        assert seen[0] == (500, 5000) and seen[-1] == (5000, 5000)
        # no spill temp files survive the build
        leftovers = [p for p in os.listdir(tmp_path) if p != "streamed.bin"]
        assert leftovers == []
        mapped = LabelStore.open_mmap(path)
        oracle = TreeDistanceOracle(tree)
        pairs = uniform_pairs(tree, 100, seed=3)
        assert QueryEngine(mapped).batch_query(pairs) == [
            oracle.distance(u, v) for u, v in pairs
        ]

    def test_in_memory_baseline_matches(self, tmp_path):
        tree = make_tree("random", 150, seed=8)
        streamed, baseline = tmp_path / "a.bin", tmp_path / "b.bin"
        build_store_streaming(make_scheme_from_spec("freedman"), tree, streamed)
        build_store_in_memory(make_scheme_from_spec("freedman"), tree, baseline)
        assert streamed.read_bytes() == baseline.read_bytes()

    def test_rejects_tiny_run_buffer(self, tmp_path):
        tree = make_tree("random", 10, seed=0)
        with pytest.raises(ValueError):
            build_store_streaming(
                make_scheme_from_spec("freedman"), tree, tmp_path / "x.bin",
                run_bytes=1024,
            )


class TestEncodeStream:
    """encode_stream yields encode()'s labels in node order for every scheme."""

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_matches_encode(self, spec):
        tree = make_tree("random", 120, seed=17)
        streamed = [
            label.to_bits()
            for label in make_scheme_from_spec(spec).encode_stream(tree)
        ]
        encoded = make_scheme_from_spec(spec).encode(tree)
        assert len(streamed) == tree.n
        assert streamed == [encoded[node].to_bits() for node in range(tree.n)]


class TestStructuralWorkloads:
    def test_sibling_pairs_share_a_parent(self):
        tree = make_tree("random", 400, seed=6)
        pairs = sibling_pairs(tree, 250, seed=1)
        assert len(pairs) == 250
        for u, v in pairs:
            assert u != v
            assert tree.parent(u) == tree.parent(v)

    def test_sibling_pairs_on_a_path_degenerate_gracefully(self):
        tree = make_tree("path", 50, seed=0)
        pairs = sibling_pairs(tree, 40, seed=2)
        assert len(pairs) == 40
        for u, v in pairs:
            assert u == v or tree.parent(v) == u

    def test_khop_pairs_stay_within_radius(self):
        tree = make_tree("random", 300, seed=9)
        oracle = TreeDistanceOracle(tree)
        for hops in (1, 3, 6):
            pairs = khop_local_pairs(tree, 150, hops=hops, seed=4)
            assert len(pairs) == 150
            assert all(oracle.distance(u, v) <= hops for u, v in pairs)

    def test_registry_and_tree_requirement(self):
        assert {"uniform", "zipf", "sibling", "khop"} <= set(WORKLOADS)
        tree = make_tree("random", 100, seed=0)
        assert len(pair_workload("sibling", tree, 10, seed=0)) == 10
        assert len(pair_workload("khop", tree, 10, seed=0, hops=2)) == 10
        with pytest.raises(ValueError, match="needs the tree itself"):
            pair_workload("sibling", 100, 10)
        with pytest.raises(ValueError, match="needs the tree itself"):
            pair_workload("khop", 100, 10)
        with pytest.raises(ValueError):
            khop_local_pairs(tree, 5, hops=0)


class TestMemoryProbes:
    def test_rss_probes_report_plausible_numbers(self):
        current = current_rss_bytes()
        peak = peak_rss_bytes()
        # a running CPython interpreter is at least a few MiB resident
        assert current > 1 << 20
        assert peak >= current // 2  # peak is >= current modulo sampling noise

    def test_address_space_cap_kills_big_allocations(self):
        """Under RLIMIT_AS a beyond-cap allocation fails; proven in a child."""
        import subprocess
        import sys

        probe = (
            "from repro.scale import cap_address_space\n"
            "assert cap_address_space(512 * 1024 * 1024)\n"
            "try:\n"
            "    block = bytearray(1 << 31)\n"
            "except MemoryError:\n"
            "    print('CAPPED')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH="src"),
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        if result.returncode != 0 and "CAPPED" not in result.stdout:
            pytest.skip(f"RLIMIT_AS not enforceable here: {result.stderr!r}")
        assert "CAPPED" in result.stdout


class TestServeMmapTarget:
    def test_open_serve_target_mmap(self, tmp_path):
        from repro.serve.supervisor import open_serve_target

        tree, _, path = _saved_store(tmp_path, "freedman")
        target, description = open_serve_target(str(path), use_mmap=True)
        assert "mmap" in description
        assert target.store.mmap_backed
        heap_target, heap_description = open_serve_target(str(path))
        assert "heap" in heap_description
        assert not heap_target.store.mmap_backed

    def test_stats_report_rss(self, tmp_path):
        from repro.serve.server import ServingCore

        tree, _, path = _saved_store(tmp_path, "freedman")
        from repro.api import DistanceIndex

        core = ServingCore(DistanceIndex.open(path, mmap=True))
        payload = core.stats()
        assert payload["rss_bytes"] > 1 << 20
