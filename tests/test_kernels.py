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
import threading
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
from strategies import parent_array_trees

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
        scheme = make_scheme_from_spec("hld-fixed")
        engine = QueryEngine(LabelStore.encode_tree(scheme, tree), scheme=scheme)
        assert engine.query(0, 63) == engine.batch_query([(0, 63)])[0]


# -- cross-tier differentials ------------------------------------------------


def _answers_under(tier, store, spec, pairs, nodes):
    with forced_tier(tier):
        scheme = make_scheme_from_spec(spec)
        engine = QueryEngine(store, scheme=scheme)
        return engine.batch_query(pairs), engine.matrix_into(nodes)


@pytest.mark.parametrize("spec", ["hld-fixed", "freedman"])
def test_fused_tiers_match_python_on_large_batches(spec):
    """Large batches with duplicate and self pairs, on every tier."""
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


@pytest.mark.parametrize("cache_size", [4096, 32])
def test_cache_counters_identical_across_tiers(cache_size):
    """The native arena counts, admits and evicts as the Python cache does.

    The arena keeps decoded labels in C instead of parsed objects in
    Python, which must leave the resident/admitted counts exactly as
    parsing does — with a small cache, in the same admission order; only
    the native tier reports arena bytes and decodes.
    """
    tree = make_tree("random", 200, seed=47)
    pairs = random_pairs(tree, 400, seed=53)
    for spec in ("hld-fixed", "freedman"):
        store = LabelStore.encode_tree(make_scheme_from_spec(spec), tree)
        infos = {}
        for tier in available_tiers():
            with forced_tier(tier):
                assert kernels.backend_name() == tier
                engine = QueryEngine(
                    store, scheme=make_scheme_from_spec(spec), cache_size=cache_size
                )
                engine.batch_query(pairs)
                for start in range(0, len(pairs), 50):
                    engine.batch_query(pairs[start : start + 50])
                info = engine.cache_info()
                assert info.pop("backend") == tier
                arena = info.pop("arena")
                if tier == "python":
                    assert arena is None
                else:
                    assert arena["decodes"] == info["misses"] and arena["bytes"] > 0
                infos[tier] = info
        assert len({tuple(sorted(info.items())) for info in infos.values()}) == 1, (
            spec,
            infos,
        )


@pytest.mark.parametrize("spec", ["hld-fixed", "freedman"])
def test_native_batch_skips_the_python_parse(spec, monkeypatch):
    """Kernel first: the arena decodes each cold label once, Python parses none."""
    if "native" not in available_tiers():
        pytest.skip("native tier not available in this environment")
    tree = make_tree("random", 300, seed=79)
    oracle = TreeDistanceOracle(tree)
    scheme = make_scheme_from_spec(spec)
    store = LabelStore.encode_tree(scheme, tree)
    pairs = random_pairs(tree, 120, seed=83)
    distinct = {node for pair in pairs for node in pair}
    with forced_tier("native"):
        engine = QueryEngine(store, scheme=scheme)
        with monkeypatch.context() as patch:
            for name in ("parse", "parse_many"):
                patch.setattr(
                    type(scheme), name, lambda *args, name=name: pytest.fail(name)
                )
            assert engine.batch_query(pairs) == oracle.batch_distance(pairs)
            # single queries and small batches take the same kernel path
            u, v = pairs[0]
            assert engine.query(u, v) == oracle.distance(u, v)
            small = pairs[1:4]
            assert engine.batch_query(small) == oracle.batch_distance(small)
            # matrices are kernel first too, and never touch the arena
            index = DistanceIndex(QueryEngine(store, scheme=scheme))
            everything = list(range(tree.n))
            assert index.matrix(raw=True) == oracle.distance_matrix(everything)
            assert index.engine.cache_info()["misses"] == 0
        info = engine.cache_info()
        rehits = len({u, v}) + len({node for pair in small for node in pair})
        assert (info["hits"], info["misses"], info["size"]) == (
            rehits,
            len(distinct),
            len(distinct),
        )
        assert info["arena"]["decodes"] == len(distinct)  # once per residency

        # the Python matrix path parses locally and leaves the arena alone
        nodes = sorted(distinct)[:40]
        flat = [oracle.distance(u, v) for u in nodes for v in nodes]
        before = engine.cache_info()
        for symmetric in (True, False):
            assert engine.matrix_into(nodes, assume_symmetric=symmetric) == flat
        assert engine.cache_info() == before
        assert engine.distance_matrix(nodes) == oracle.distance_matrix(nodes)
        # a narrow arena evicts down to its budget and re-decodes on return
        narrow = QueryEngine(store, scheme=scheme, cache_size=32)
        for _ in range(2):
            assert narrow.batch_query(pairs) == oracle.batch_distance(pairs)
        info = narrow.cache_info()
        assert info["size"] == 32
        assert info["arena"]["decodes"] == info["misses"] > len(distinct)
        # clear_cache frees the arena and zeroes the counters
        engine.clear_cache()
        info = engine.cache_info()
        assert (info["hits"], info["misses"], info["size"], info["arena"]) == (
            0,
            0,
            0,
            {"bytes": 0, "decodes": 0},
        )


def _truncated(store, node, bits):
    """A copy of ``store`` in which ``node``'s label keeps its first ``bits``."""
    view, offsets, lengths = store.buffers()
    payload = bytearray()
    bit_lengths = []
    for other in range(store.n):
        length = bits if other == node else lengths[other]
        label = bytearray(view[offsets[other] : offsets[other] + (length + 7) // 8])
        if length % 8:
            label[-1] &= 0xFF << (8 - length % 8) & 0xFF
        payload += label
        bit_lengths.append(length)
    return LabelStore(store.scheme_name, store.scheme_params, bit_lengths, bytes(payload))


@pytest.mark.parametrize("spec", ["hld-fixed", "freedman"])
def test_batch_with_an_undecodable_label_admits_nothing(spec):
    """Its lookups count, but no label of it is admitted, on every tier.

    The arena decodes the batch's misses in order, so the labels decoded
    before the truncated one must be dropped again, as the Python cache
    admits nothing when ``parse_many`` raises.
    """
    tree = make_tree("random", 60, seed=97)
    store = _truncated(LabelStore.encode_tree(make_scheme_from_spec(spec), tree), 7, 3)
    for tier in available_tiers():
        with forced_tier(tier):
            engine = QueryEngine(store, scheme=make_scheme_from_spec(spec))
            with pytest.raises(Exception):
                engine.batch_query([(1, 2), (3, 7)])
            info = engine.cache_info()
            assert (info["hits"], info["misses"], info["size"]) == (0, 4, 0), tier
            engine.batch_query([(1, 2)])
            info = engine.cache_info()
            assert (info["hits"], info["misses"], info["size"]) == (0, 6, 2), tier


_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 1469598103934665603
_FNV_PRIME = 1099511628211


def _fold_checksum(spec: str, labels) -> int:
    """FNV-1a-style fold over every decoded field of ``labels`` (in order).

    The C side computes the identical fold over its own decode
    (``repro_checksum``, reached through ``NativeBackend.parse_checksum``),
    so an equal checksum certifies that the C decoder and ``scheme.read``
    read every field of the stream identically.
    """
    h = _FNV_OFFSET

    def fold(value: int) -> None:
        nonlocal h
        h = ((h ^ value) * _FNV_PRIME) & _MASK64

    for label in labels:
        if spec == "hld-fixed":
            fold(label.root_distance)
            fold(label._count)
            for path_id, exit_distance in zip(label.path_ids, label.exits):
                fold(path_id)
                fold(exit_distance)
            continue
        for value in (label.node_id, label.root_distance, label.domination):
            fold(value)
        fold(label.light_depth)
        for level in range(label.light_depth):
            fold(len(label.codewords[level]))
            fold(label.codewords[level].to_int())
            fold(label.light_weights[level])
            fold(int(label.entry_skip[level]))
            fold(len(label.entry_kept[level]))
            fold(label.entry_kept[level].to_int())
            fold(label.entry_pushed[level])
        for value in label.fragment_refs + label.fragment_distances:
            fold(value)
        for accumulator in label.accumulators:
            fold(len(accumulator))
            fold(accumulator.to_int() & _MASK64)
    return h


@pytest.mark.parametrize("spec", ["hld-fixed", "freedman"])
def test_parse_checksums_agree_across_tiers(spec):
    """The C decoder reads the exact same fields as ``scheme.parse_many``."""
    tree = make_tree("random", 150, seed=59)
    scheme = make_scheme_from_spec(spec)
    store = LabelStore.encode_tree(scheme, tree)
    nodes = list(range(store.n))
    parsed = scheme.parse_many(store, nodes)
    checksums = {"python": _fold_checksum(spec, [parsed[node] for node in nodes])}
    native = kernels.get_backend("native")
    if native is not None:
        checksums["native"] = native.parse_checksum(store, scheme, nodes)
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
    """``(store, node, pairs)`` cases: ``node``'s label is mutated in ``store``
    and every pair touches it."""
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
        cases.append((_flip_bits(store, node, flips), node, pairs))
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
    cases.append((LabelStore.from_labels(scheme, edited), node, pairs))
    return cases


def _outcomes(tier, spec, cases):
    """Each case's answer list, or the type of the exception it raised."""
    results = []
    with forced_tier(tier):
        assert kernels.backend_name() == tier
        for store, _, pairs in cases:
            engine = QueryEngine(store, scheme=make_scheme_from_spec(spec))
            try:
                results.append(engine.batch_query(pairs))
            except Exception as error:
                results.append(type(error))
    return results


@pytest.mark.parametrize("spec", ["hld-fixed", "freedman"])
def test_mutated_labels_answer_alike_on_native_and_python(spec):
    """Corrupt label bits get the Python answer or the Python exception.

    Every batch touches one mutated label, and the C kernel sees it before
    any Python parse; it must decline wherever the Python parser or query
    would raise or differ.
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


def _one_store(clean, cases):
    """``clean``'s labels as nodes ``0..n-1``, then each case's mutated label
    as node ``n + i``, with the case's pairs moved onto it."""
    view, _, bit_lengths = clean.buffers()
    payload = bytearray(view)
    bit_lengths = list(bit_lengths)
    moved = []
    for index, (store, node, pairs) in enumerate(cases):
        view, offsets, lengths = store.buffers()
        start = offsets[node]
        payload += view[start : start + (lengths[node] + 7) // 8]
        bit_lengths.append(lengths[node])
        extra = clean.n + index
        moved.append(
            (extra, [(extra if u == node else u, extra if v == node else v) for u, v in pairs])
        )
    store = LabelStore(clean.scheme_name, clean.scheme_params, bit_lengths, bytes(payload))
    return store, moved


def _long_lived_steps(tier, spec, store, steps):
    """Every step's outcome and counters, all through one engine."""
    results = []
    with forced_tier(tier):
        assert kernels.backend_name() == tier
        engine = QueryEngine(store, scheme=make_scheme_from_spec(spec), cache_size=32)
        for pairs in steps:
            try:
                outcome = engine.batch_query(pairs)
            except Exception as error:
                outcome = type(error)
            info = engine.cache_info()
            assert info["size"] <= 32
            results.append((outcome, info["hits"] + info["misses"], info["misses"]))
    return results


@pytest.mark.parametrize("spec", ["hld-fixed", "freedman"])
def test_mutated_labels_answer_alike_through_one_long_lived_engine(spec):
    """The mutation differential through one engine per tier, with eviction.

    All mutated cases and clean batches run through a single 32-label
    engine, so the arena admits, evicts and declines across hundreds of
    batches.  Each step's answers (or exception type) and lookup count
    equal the Python tier's, and a label that does not decode is never
    admitted: looking it up again is a miss.  (Residency itself may differ:
    the C decoder also declines labels Python parses, such as an hld-fixed
    label whose widths differ from the store's.)
    """
    if "native" not in available_tiers():
        pytest.skip("native tier not available in this environment")
    scheme = make_scheme_from_spec(spec)
    tree = make_tree("random_binary", 200, seed=71)
    cases = _mutated_cases(spec, scheme, tree, seed=73)
    store, moved = _one_store(LabelStore.encode_tree(scheme, tree), cases)
    steps = []
    undecodable = []
    for index, (extra, pairs) in enumerate(moved):
        steps.append(random_pairs(tree, 24, seed=index))
        steps.append(pairs)
        try:
            scheme.parse_many(store, [extra])
        except Exception:
            undecodable.append(len(steps))
        steps.append([(extra, extra)])
    native = _long_lived_steps("native", spec, store, steps)
    python = _long_lived_steps("python", spec, store, steps)
    diverged = [
        (index, native[index][:2], python[index][:2])
        for index in range(len(steps))
        if native[index][:2] != python[index][:2]
    ]
    assert not diverged, f"{len(diverged)} of {len(steps)} diverged: {diverged[:3]}"
    assert undecodable, "no mutation made a label undecodable"
    for probe in undecodable:  # the re-lookup right after the failed batch
        assert native[probe][2] == native[probe - 1][2] + 1, probe


@pytest.mark.parametrize("spec", ["hld-fixed", "freedman"])
def test_arena_is_safe_under_concurrent_batches_and_matrices(spec):
    """Two threads batch through one arena while a third fills matrices.

    cffi releases the GIL around every C call, so only the arena's lock
    keeps admission and eviction consistent; the matrix decodes privately.
    """
    if "native" not in available_tiers():
        pytest.skip("native tier not available in this environment")
    tree = make_tree("random", 400, seed=89)
    oracle = TreeDistanceOracle(tree)
    batches = [random_pairs(tree, 64, seed=seed) for seed in range(40)]
    expected = [oracle.batch_distance(pairs) for pairs in batches]
    nodes = list(range(0, tree.n, 9))
    matrix = [oracle.distance(u, v) for u in nodes for v in nodes]
    with forced_tier("native"):
        index = DistanceIndex.build(tree, spec, cache_size=48)
        failures: list = []

        def batcher(offset: int) -> None:
            for round_ in range(5):
                for k in range(len(batches)):
                    at = (k + offset) % len(batches)
                    if index.batch(batches[at], raw=True) != expected[at]:
                        failures.append(("batch", offset, round_, at))

        def matrices() -> None:
            for round_ in range(10):
                if index.engine.matrix_into(nodes) != matrix:
                    failures.append(("matrix", round_))

        threads = [
            threading.Thread(target=batcher, args=(0,)),
            threading.Thread(target=batcher, args=(len(batches) // 2,)),
            threading.Thread(target=matrices),
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[:3]
        info = index.engine.cache_info()
        lookups = 2 * 5 * sum(len({n for pair in pairs for n in pair}) for pairs in batches)
        assert info["hits"] + info["misses"] == lookups
        assert info["arena"]["decodes"] == info["misses"]
        assert info["size"] <= 48
