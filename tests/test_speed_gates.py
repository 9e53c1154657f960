"""Speed gates: the packed store and the batched engine against their baselines.

Each gate times the code it guards against a slower baseline on the same
instance and asserts a ratio with headroom for machine noise.  They run on
whichever kernel tier is selected, so the tier-1 suite checks both the
native tier and ``REPRO_KERNELS=python``:

* batched ``DistanceIndex.batch`` >= 2x per-pair ``query_from_bits``
  (each label parsed once per batch instead of twice per query);
* packed HLD ``QueryEngine.batch_query`` >= 3x the string-backed reference
  pipeline of ``tests/bitio_reference.py``;
* ``scheme.encode`` + ``LabelStore.from_labels`` >= 1.5x the reference
  serialisation, with the identical packed payload;
* on the native tier, ``FreedmanScheme().encode`` +
  ``LabelStore.from_labels`` >= 3x the same pipeline on the python tier's
  encoder, with the identical payload (skipped without the native tier).
"""

from __future__ import annotations

import gc
import time

import pytest

import bitio_reference as ref
from test_kernels import available_tiers, forced_tier
from repro import kernels
from repro.api import DistanceIndex
from repro.core.freedman import FreedmanScheme
from repro.core.hld import HLDScheme
from repro.generators.workloads import make_tree, random_pairs
from repro.oracles.exact_oracle import TreeDistanceOracle
from repro.store import LabelStore, QueryEngine


def best_of(func, repeats: int = 3):
    """Smallest wall time of ``repeats`` runs, plus the last return value."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - start)
    return best, result


def batched_speedup() -> float:
    """Per-pair ``query_from_bits`` time over one batched run, same answers.

    A batch of 2000 random pairs on a 512-node tree touches each label many
    times, so parsing each label once per batch must win by a wide margin.
    Each side is timed once; a collection before each keeps a full
    collection of earlier tests' garbage out of the timed regions.
    """
    tree = make_tree("random", 512, seed=7)
    pairs = random_pairs(tree, 2000, seed=3)
    index = DistanceIndex.build(tree, FreedmanScheme())
    scheme, store = index.scheme, index.store

    gc.collect()
    start = time.perf_counter()
    single = [
        scheme.query_from_bits(store.label_bits(u), store.label_bits(v))
        for u, v in pairs
    ]
    single_seconds = time.perf_counter() - start

    gc.collect()
    start = time.perf_counter()
    batched = index.batch(pairs, raw=True)
    batch_seconds = time.perf_counter() - start

    assert batched == single, "batched answers disagree with per-pair answers"
    return single_seconds / batch_seconds


def packed_query_speedup() -> float:
    """Reference ``batch_query`` time over the packed engine's, same answers."""
    tree = make_tree("random", 2048, seed=23)
    scheme = HLDScheme()
    store = LabelStore.encode_tree(scheme, tree)
    pairs = random_pairs(tree, 5000, seed=13)
    packed_time, packed_answers = best_of(
        lambda: QueryEngine(store, scheme=scheme).batch_query(pairs)
    )
    reference_time, reference_answers = best_of(
        lambda: ref.reference_batch_query_hld(store, pairs)
    )
    assert packed_answers == reference_answers
    return reference_time / packed_time


def packed_encode_speedup() -> float:
    """Reference encode+pack time over the packed pipeline's, same payload."""
    tree = make_tree("random", 2048, seed=23)
    scheme = HLDScheme()
    packed_time, store = best_of(
        lambda: LabelStore.from_labels(scheme, scheme.encode(tree))
    )
    reference_time, (bit_lengths, payload) = best_of(
        lambda: ref.reference_pack_hld(scheme.encode(tree))
    )
    assert bit_lengths == [store.bit_length(node) for node in range(store.n)]
    assert payload == bytes(store.buffers()[0])
    return reference_time / packed_time


def native_encode_speedup() -> float:
    """Python-tier encode+pack time over the native tier's, same payload."""
    tree = make_tree("random", 4096, seed=23)
    times, payloads = {}, {}
    for tier in ("native", "python"):
        with forced_tier(tier):
            assert kernels.backend_name() == tier
            scheme = FreedmanScheme()
            times[tier], store = best_of(
                lambda: LabelStore.from_labels(scheme, scheme.encode(tree))
            )
        payloads[tier] = bytes(store.buffers()[0])
    assert payloads["native"] == payloads["python"]
    return times["python"] / times["native"]


def test_batched_speedup():
    speedup = batched_speedup()
    assert speedup >= 2.0, f"batched speedup only {speedup:.2f}x"


def test_packed_vs_reference_batch_query():
    speedup = packed_query_speedup()
    assert speedup >= 3.0, f"packed batch_query only {speedup:.2f}x over reference"


def test_packed_vs_reference_encode_pack():
    speedup = packed_encode_speedup()
    assert speedup >= 1.5, f"packed encode+pack only {speedup:.2f}x over reference"


@pytest.mark.skipif("native" not in available_tiers(), reason="native kernel tier unavailable")
def test_native_vs_python_freedman_encode_pack():
    speedup = native_encode_speedup()
    assert speedup >= 3.0, f"native Freedman encode+pack only {speedup:.2f}x over python"


# -- the baselines themselves are correct ------------------------------------
# A gate's ratio means something only if the baseline does the same work and
# gets it right, so check both reference pipelines on small trees of several
# shapes, independently of the packed engine the gates compare them with.

BASELINE_FAMILIES = ["random", "path", "star", "broom"]


@pytest.mark.parametrize("family", BASELINE_FAMILIES)
def test_reference_batch_query_matches_oracle(family):
    tree = make_tree(family, 97, seed=5)
    store = LabelStore.encode_tree(HLDScheme(), tree)
    pairs = random_pairs(tree, 300, seed=11)
    # a small cache exercises the reference's LRU eviction as well
    answers = ref.reference_batch_query_hld(store, pairs, cache_size=8)
    assert answers == TreeDistanceOracle(tree).batch_distance(pairs)


@pytest.mark.parametrize("family", BASELINE_FAMILIES)
def test_reference_pack_matches_store(family):
    tree = make_tree(family, 97, seed=5)
    scheme = HLDScheme()
    labels = scheme.encode(tree)
    store = LabelStore.from_labels(scheme, labels)
    bit_lengths, payload = ref.reference_pack_hld(labels)
    assert bit_lengths == [store.bit_length(node) for node in range(store.n)]
    assert payload == bytes(store.buffers()[0])
