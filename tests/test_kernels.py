"""Tier selection, graceful degradation and cross-tier differentials.

The :mod:`repro.kernels` contract is that both tiers — native C and
packed Python — return **byte-identical answers** (a fused kernel that
cannot honour that declines with ``None`` and the caller falls back), and
that tier selection degrades gracefully: a missing compiler or a corrupt
shared library must never break a query, only change which tier answers
it.  These tests force each tier through
``REPRO_KERNELS``, sabotage the native library through
``REPRO_KERNELS_LIB``, and run hypothesis differentials of
``batch_query``/``matrix_into`` across every registered scheme spec.
"""

from __future__ import annotations

import dataclasses
import os
import random
import sys
from contextlib import contextmanager

import pytest
from hypothesis import given, settings

from repro import kernels
from repro.api import DistanceIndex
from repro.core.registry import make_scheme_from_spec
from repro.encoding.varint import encode_uvarint
from repro.generators.workloads import make_tree, random_pairs
from repro.oracles.exact_oracle import TreeDistanceOracle
from repro.store import STORE_MAGIC, LabelStore, QueryEngine, StoreError
from repro.testing import parent_array_trees

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


@pytest.fixture(autouse=True)
def _fresh_probe():
    """Every test starts and ends with no cached probe (env tweaks local)."""
    kernels.reset()
    yield
    kernels.reset()


@contextmanager
def forced_tier(tier: str | None):
    """Force ``REPRO_KERNELS=tier`` for the duration (None clears it)."""
    old = os.environ.get(kernels.ENV_VAR)
    if tier is None:
        os.environ.pop(kernels.ENV_VAR, None)
    else:
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


def available_tiers() -> list[str]:
    with forced_tier(None):
        probed = kernels.probe(full=True)
        return [t for t in kernels.TIER_ORDER if probed["tiers"][t]["available"]]


# -- probe structure ---------------------------------------------------------


def test_probe_shape_and_python_floor():
    probed = kernels.probe(full=True)
    assert set(probed) == {"selected", "requested", "env_var", "tiers", "note", "full"}
    assert tuple(probed["tiers"]) == kernels.TIER_ORDER
    # the packed-Python floor is part of the library, never unavailable
    assert probed["tiers"]["python"]["available"] is True
    assert probed["selected"] in kernels.TIER_ORDER
    assert kernels.backend().name == probed["selected"]


def test_unknown_env_value_falls_back_to_automatic():
    # ``numpy`` named a tier once; that tier is gone, so the value is now
    # as unknown as any other and selects automatically
    for value in ("fortran", "numpy"):
        with forced_tier(value):
            probed = kernels.probe(full=True)
            assert probed["requested"] is None
            assert "unknown" in probed["note"]
            assert probed["selected"] in kernels.TIER_ORDER


def test_partial_probe_skips_tiers_below_forced_floor():
    """Forcing python must not pay a native compile attempt."""
    with forced_tier("python"):
        probed = kernels.probe()
        assert probed["selected"] == "python"
        assert probed["tiers"]["native"]["available"] is None
        # a later full probe upgrades the cached result
        full = kernels.probe(full=True)
        assert full["tiers"]["python"]["available"] is True
        assert full["selected"] == "python"


@pytest.mark.parametrize("tier", ["native", "python"])
def test_forcing_each_available_tier_selects_it(tier):
    if tier not in available_tiers():
        pytest.skip(f"{tier} tier not available in this environment")
    with forced_tier(tier):
        assert kernels.backend_name() == tier
        assert kernels.probe()["requested"] == tier


def test_get_backend_exposes_every_available_tier():
    for tier in available_tiers():
        backend = kernels.get_backend(tier)
        assert backend is not None and backend.name == tier


# -- graceful degradation on a broken native extension -----------------------


def test_missing_native_library_degrades(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS_LIB", str(tmp_path / "nowhere.so"))
    kernels.reset()
    probed = kernels.probe(full=True)
    assert probed["tiers"]["native"]["available"] is False
    assert probed["selected"] == "python"


def test_corrupt_native_library_degrades(tmp_path, monkeypatch):
    bogus = tmp_path / "corrupt.so"
    bogus.write_bytes(b"\x7fELF this is not a shared library")
    monkeypatch.setenv("REPRO_KERNELS_LIB", str(bogus))
    kernels.reset()
    probed = kernels.probe(full=True)
    assert probed["tiers"]["native"]["available"] is False
    assert probed["selected"] == "python"


def test_cc_may_carry_flags(monkeypatch):
    """``$CC`` is split shell-style; only its first word is looked up."""
    from repro.kernels import native

    monkeypatch.setenv("CC", f"'{sys.executable}' -fsanitize=address,undefined")
    assert native._compiler() == [sys.executable, "-fsanitize=address,undefined"]
    monkeypatch.setenv("CC", "no-such-compiler-anywhere -O1")
    assert native._compiler() in (None, ["cc"], ["gcc"], ["clang"])


def test_forced_unavailable_tier_degrades_with_note(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS_LIB", str(tmp_path / "nowhere.so"))
    with forced_tier("native"):
        probed = kernels.probe(full=True)
        assert probed["selected"] == "python"
        assert "degraded" in probed["note"]
        # queries still answer correctly through the degraded tier
        tree = make_tree("random", 64, seed=3)
        engine = QueryEngine.encode_tree(make_scheme_from_spec("hld-fixed"), tree)
        assert engine.query(0, 63) == engine.batch_query([(0, 63)])[0]


# -- cross-tier differentials ------------------------------------------------


def _answers_under(tier, store, spec, pairs, nodes):
    with forced_tier(tier):
        scheme = make_scheme_from_spec(spec)
        engine = QueryEngine(store, scheme=scheme)
        return engine.batch_query(pairs), engine.matrix_into(nodes)


@pytest.mark.parametrize("spec", ["hld-fixed", "freedman"])
def test_fused_tiers_match_python_on_large_batches(spec):
    """Batches past every ``min_batch`` so the fused kernels really engage."""
    tree = make_tree("random", 300, seed=41)
    scheme = make_scheme_from_spec(spec)
    store = LabelStore.encode_tree(scheme, tree)
    pairs = random_pairs(tree, 500, seed=43) + [(7, 7), (0, 299)]
    nodes = list(range(80))
    reference = _answers_under("python", store, spec, pairs, nodes)
    for tier in available_tiers():
        assert _answers_under(tier, store, spec, pairs, nodes) == reference, tier


@settings(max_examples=10, deadline=None)
@given(tree=parent_array_trees(max_nodes=24))
def test_all_specs_identical_across_tiers(tree):
    tiers = available_tiers()
    pairs = [(u, v) for u in range(tree.n) for v in range(tree.n)]
    nodes = list(range(tree.n))
    for spec in ALL_SPECS:
        scheme = make_scheme_from_spec(spec)
        store = LabelStore.encode_tree(scheme, tree)
        reference = _answers_under("python", store, spec, pairs, nodes)
        for tier in tiers:
            assert _answers_under(tier, store, spec, pairs, nodes) == reference, (
                spec,
                tier,
            )


def test_cache_counters_identical_across_tiers():
    """Fused kernels replace only the query loop, never the bookkeeping.

    The native tier admits cold labels undecoded instead of parsing them,
    which must leave the resident/admitted counts exactly as parsing does.
    """
    tree = make_tree("random", 200, seed=47)
    pairs = random_pairs(tree, 400, seed=53)
    for spec in ("hld-fixed", "freedman"):
        store = LabelStore.encode_tree(make_scheme_from_spec(spec), tree)
        infos = {}
        for tier in available_tiers():
            with forced_tier(tier):
                assert kernels.backend_name() == tier
                engine = QueryEngine(store, scheme=make_scheme_from_spec(spec))
                engine.batch_query(pairs)
                engine.batch_query(pairs)
                info = engine.cache_info()
                assert info.pop("backend") == tier
                infos[tier] = info
        assert len({tuple(sorted(info.items())) for info in infos.values()}) == 1, (
            spec,
            infos,
        )


@pytest.mark.parametrize("spec", ["hld-fixed", "freedman"])
def test_native_batch_skips_the_python_parse(spec, monkeypatch):
    """Kernel first: cold labels are admitted undecoded, parsed on first use."""
    if "native" not in available_tiers():
        pytest.skip("native tier not available in this environment")
    tree = make_tree("random", 300, seed=79)
    oracle = TreeDistanceOracle(tree)
    scheme = make_scheme_from_spec(spec)
    store = LabelStore.encode_tree(scheme, tree)
    pairs = random_pairs(tree, 120, seed=83)
    distinct = {node for pair in pairs for node in pair}
    with forced_tier("native"):
        min_batch = kernels.backend().min_batch
        assert len(pairs) >= min_batch
        engine = QueryEngine(store, scheme=scheme)
        with monkeypatch.context() as patch:
            for name in ("parse", "parse_many"):
                patch.setattr(
                    type(scheme), name, lambda *args, name=name: pytest.fail(name)
                )
            assert engine.batch_query(pairs) == oracle.batch_distance(pairs)
            # matrices are kernel first too, and never touch the cache
            index = DistanceIndex(QueryEngine(store, scheme=scheme))
            everything = list(range(tree.n))
            assert index.matrix(raw=True) == oracle.distance_matrix(everything)
            assert index.engine.cache_info()["misses"] == 0
        info = engine.cache_info()
        assert (info["hits"], info["misses"], info["size"]) == (0, len(distinct), len(distinct))

        # every Python-side use parses the resident placeholders it meets
        nodes = sorted(distinct)[:40]
        flat = [oracle.distance(u, v) for u in nodes for v in nodes]
        before = engine.cache_info()
        for symmetric in (True, False):
            assert engine.matrix_into(nodes, assume_symmetric=symmetric) == flat
        assert engine.cache_info() == before
        u, v = pairs[0]
        assert engine.query(u, v) == oracle.distance(u, v)
        small = pairs[1:min_batch]
        assert engine.batch_query(small) == oracle.batch_distance(small)
        assert engine.distance_matrix(nodes) == oracle.distance_matrix(nodes)
        # a matrix wider than the cache parses placeholders outside the LRU
        narrow = QueryEngine(store, scheme=scheme, cache_size=32)
        assert narrow.batch_query(pairs) == oracle.batch_distance(pairs)
        assert narrow.distance_matrix(nodes) == oracle.distance_matrix(nodes)
        assert narrow.cache_info()["size"] == 32


@pytest.mark.parametrize("spec", ["hld-fixed", "freedman"])
def test_parse_checksums_agree_across_tiers(spec):
    """Every tier's decoder reads the exact same fields from the stream."""
    tree = make_tree("random", 150, seed=59)
    scheme = make_scheme_from_spec(spec)
    store = LabelStore.encode_tree(scheme, tree)
    nodes = list(range(store.n))
    checksums = {}
    for tier in available_tiers():
        backend = kernels.get_backend(tier)
        checksum = backend.parse_checksum(store, scheme, nodes)
        if checksum is not None:
            checksums[tier] = checksum
    assert "python" in checksums
    assert len(set(checksums.values())) == 1, checksums


def test_store_roundtrip_identical_across_tiers():
    """The bulk-varint header fast path decodes exactly like the loop."""
    tree = make_tree("random", 400, seed=61)  # n >= 256 engages the fast path
    scheme = make_scheme_from_spec("hld-fixed")
    data = LabelStore.encode_tree(scheme, tree).to_bytes()
    blobs = set()
    for tier in available_tiers():
        with forced_tier(tier):
            store = LabelStore.from_bytes(data)
            assert store.n == 400
            blobs.add(store.to_bytes())
    assert blobs == {data}
    # corrupt input raises the reference error no matter the tier
    for tier in available_tiers():
        with forced_tier(tier):
            with pytest.raises(StoreError):
                LabelStore.from_bytes(data[: len(data) // 2])


def test_impossible_node_count_is_a_store_error_on_every_tier():
    """A header claiming more labels than bytes remain is refused up front.

    Every index entry takes at least one byte, so n = 2^31 - 1 in a 40-byte
    file is refused before either index decoder sizes anything by n.
    """
    header = (
        STORE_MAGIC
        + encode_uvarint(9)
        + b"hld-fixed"
        + encode_uvarint(2)
        + b"{}"
        + encode_uvarint((1 << 31) - 1)
    )
    data = header + bytes(40 - len(header))
    for tier in available_tiers():
        with forced_tier(tier):
            with pytest.raises(StoreError):
                LabelStore.from_bytes(data)


def test_describe_and_cache_info_report_active_tier():
    tree = make_tree("random", 50, seed=67)
    for tier in available_tiers():
        with forced_tier(tier):
            index = DistanceIndex.build(tree, "hld-fixed")
            assert index.describe()["kernel"] == tier
            assert index.engine.cache_info()["backend"] == tier


# -- mutated label bits: the C decoder against the Python reference ----------

#: seeded flips per scheme; with the kernel answering before any Python
#: parse, these labels reach the C decoder first
MUTATIONS = 400


def _flip_bits(store, node, positions):
    """A copy of ``store`` with bits ``positions`` of ``node``'s label flipped."""
    view, offsets, lengths = store.buffers()
    payload = bytearray(view)
    for bit in positions:
        at = offsets[node] * 8 + bit
        payload[at >> 3] ^= 0x80 >> (at & 7)
    return LabelStore(store.scheme_name, store.scheme_params, lengths, bytes(payload))


def _mutated_cases(spec, scheme, tree, seed):
    """``(store, pairs)`` cases, each with one mutated label in the batch."""
    rng = random.Random(seed)
    labels = scheme.encode(tree)
    store = LabelStore.from_labels(scheme, labels)
    others = list(range(tree.n))
    cases = []
    for _ in range(MUTATIONS):
        node = rng.randrange(tree.n)
        length = store.bit_length(node)
        flips = rng.sample(range(length), min(length, rng.randint(1, 4)))
        partners = rng.sample(others, 24)
        pairs = [(node, w) if k % 2 else (w, node) for k, w in enumerate(partners)]
        cases.append((_flip_bits(store, node, flips), pairs))
    edited = dict(labels)
    if spec == "freedman":
        # a label that lost all but its first fragment ref: Python raises
        # IndexError at any critical level past 0 where it dominates
        node = max(labels, key=lambda v: len(labels[v].fragment_refs))
        edited[node] = dataclasses.replace(
            labels[node], fragment_refs=labels[node].fragment_refs[:1]
        )
    else:
        # a zero path id below level 0: Python's packed comparison matches
        # it against the zero padding of any shorter label
        node = max(labels, key=lambda v: len(labels[v].path_ids))
        label = labels[node]
        edited[node] = type(label)(
            root_distance=label.root_distance,
            path_ids=[0, 0] + label.path_ids[2:],
            exits=label.exits,
            id_width=label.id_width,
            distance_width=label.distance_width,
        )
    pairs = [(node, w) for w in others if w != node]
    cases.append((LabelStore.from_labels(scheme, edited), pairs))
    return cases


def _outcomes(tier, spec, cases):
    """Each case's answer list, or the type of the exception it raised."""
    results = []
    with forced_tier(tier):
        assert kernels.backend_name() == tier
        for store, pairs in cases:
            engine = QueryEngine(store, scheme=make_scheme_from_spec(spec))
            try:
                results.append(engine.batch_query(pairs))
            except Exception as error:
                results.append(type(error))
    return results


@pytest.mark.parametrize("spec", ["hld-fixed", "freedman"])
def test_mutated_labels_answer_alike_on_native_and_python(spec):
    """Corrupt label bits get the Python answer or the Python exception.

    Every batch touches one mutated label and is past the native
    ``min_batch``, so the C kernel sees it before any Python parse; it must
    decline wherever the Python parser or query would raise or differ.
    """
    if "native" not in available_tiers():
        pytest.skip("native tier not available in this environment")
    scheme = make_scheme_from_spec(spec)
    tree = make_tree("random_binary", 200, seed=71)
    cases = _mutated_cases(spec, scheme, tree, seed=73)
    native = _outcomes("native", spec, cases)
    python = _outcomes("python", spec, cases)
    diverged = [
        (index, native[index], python[index])
        for index in range(len(cases))
        if native[index] != python[index]
    ]
    assert not diverged, f"{len(diverged)} of {len(cases)} diverged: {diverged[:3]}"
