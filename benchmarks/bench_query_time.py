"""Experiment Q-time: query latency of every scheme.

The paper claims constant query time in the word-RAM model; on CPython the
interesting comparison is the *relative* cost of the decoders (the Freedman
decoder touches one entry and one accumulator, the separator decoder scans
O(log n) centroids, the naive decoder scans whole root paths).

The store benchmarks at the bottom compare serving a packed
:class:`repro.store.LabelStore` through ``QueryEngine.batch_query`` (each
label parsed once per batch) against per-pair ``distance_from_bits`` (two
parses per query) — the parse amortisation that makes batched serving the
fast path.
"""

from __future__ import annotations

import os

import pytest

import perf_common  # the src/ path shim plus shared timing and reference helpers

from repro.analysis.label_stats import measure_store_throughput
from repro.core.alstrup import AlstrupScheme
from repro.core.approximate import ApproximateScheme
from repro.core.freedman import FreedmanScheme
from repro.core.hld import HLDScheme
from repro.core.kdistance import KDistanceScheme
from repro.core.naive import NaiveListScheme
from repro.core.separator import SeparatorScheme
from repro.generators.workloads import (
    khop_local_pairs,
    make_tree,
    random_pairs,
    sibling_pairs,
    zipf_pairs,
)
from repro.store import LabelStore, QueryEngine

EXACT_SCHEMES = {
    "freedman": FreedmanScheme,
    "alstrup": AlstrupScheme,
    "hld-fixed": HLDScheme,
    "separator": SeparatorScheme,
    "naive-list": NaiveListScheme,
}


@pytest.mark.parametrize("scheme_name", sorted(EXACT_SCHEMES))
def test_exact_query_time(benchmark, scheme_name, benchmark_tree, benchmark_pairs, benchmark_oracle):
    scheme = EXACT_SCHEMES[scheme_name]()
    labels = scheme.encode(benchmark_tree)

    def run_queries():
        total = 0
        for u, v in benchmark_pairs:
            total += scheme.distance(labels[u], labels[v])
        return total

    total = benchmark(run_queries)
    expected = sum(benchmark_oracle.distance(u, v) for u, v in benchmark_pairs)
    assert total == expected
    benchmark.extra_info.update(
        {
            "experiment": "Q-time",
            "scheme": scheme_name,
            "n": benchmark_tree.n,
            "queries_per_round": len(benchmark_pairs),
        }
    )


def test_kdistance_query_time(benchmark, benchmark_tree, benchmark_pairs):
    scheme = KDistanceScheme(8)
    labels = scheme.encode(benchmark_tree)

    def run_queries():
        hits = 0
        for u, v in benchmark_pairs:
            if scheme.bounded_distance(labels[u], labels[v]) is not None:
                hits += 1
        return hits

    benchmark(run_queries)
    benchmark.extra_info.update(
        {"experiment": "Q-time", "scheme": "k-distance(k=8)", "n": benchmark_tree.n}
    )


def test_approximate_query_time(benchmark, benchmark_tree, benchmark_pairs):
    scheme = ApproximateScheme(0.25)
    labels = scheme.encode(benchmark_tree)

    def run_queries():
        total = 0.0
        for u, v in benchmark_pairs:
            total += scheme.approximate_distance(labels[u], labels[v])
        return total

    benchmark(run_queries)
    benchmark.extra_info.update(
        {"experiment": "Q-time", "scheme": "approximate(eps=0.25)", "n": benchmark_tree.n}
    )


@pytest.mark.parametrize("scheme_name", ["freedman", "alstrup"])
def test_store_batch_query_time(benchmark, scheme_name, benchmark_tree, benchmark_oracle):
    """Batched serving from a packed store (each label parsed once)."""
    scheme = EXACT_SCHEMES[scheme_name]()
    store = LabelStore.encode_tree(scheme, benchmark_tree)
    pairs = random_pairs(benchmark_tree, 500, seed=13)

    def run_batch():
        engine = QueryEngine(store, scheme=scheme)
        return engine.batch_query(pairs)

    answers = benchmark(run_batch)
    expected = benchmark_oracle.batch_distance(pairs)
    assert answers == expected
    benchmark.extra_info.update(
        {
            "experiment": "Q-store",
            "scheme": scheme_name,
            "n": benchmark_tree.n,
            "store_bytes": store.file_bytes,
            "queries_per_round": len(pairs),
        }
    )


def test_store_single_query_time(benchmark, benchmark_tree):
    """Per-pair serving from bits: two parses per query (the slow path)."""
    scheme = FreedmanScheme()
    store = LabelStore.encode_tree(scheme, benchmark_tree)
    pairs = random_pairs(benchmark_tree, 500, seed=13)

    def run_single():
        return [
            scheme.distance_from_bits(store.label_bits(u), store.label_bits(v))
            for u, v in pairs
        ]

    benchmark(run_single)
    benchmark.extra_info.update(
        {"experiment": "Q-store", "scheme": "freedman (per-pair bits)", "n": benchmark_tree.n}
    )


def test_freedman_batched_speedup():
    """Acceptance gate: batched queries >= 2x per-pair ``distance_from_bits``.

    A batch of 2000 random pairs on a 512-node tree touches each label many
    times, so the engine's parse-once behaviour must win by a wide margin;
    2x leaves headroom for machine noise.
    """
    tree = make_tree("random", 512, seed=7)
    pairs = random_pairs(tree, 2000, seed=3)
    row = measure_store_throughput(FreedmanScheme(), tree, pairs)
    assert row["speedup"] >= 2.0, f"batched speedup only {row['speedup']:.2f}x"


def test_packed_vs_reference_batch_query():
    """Regression gate for the word-packed bit layer.

    The recorded acceptance number (>= 5x at n=4096, 10k pairs) lives in
    ``BENCH_query_time.json``; this test re-checks a smaller instance with a
    3x threshold so CI noise cannot flake it while still catching any real
    regression of the packed pipeline.
    """
    tree = make_tree("random", 2048, seed=23)
    scheme = HLDScheme()
    store = LabelStore.encode_tree(scheme, tree)
    pairs = random_pairs(tree, 5000, seed=13)
    packed_time, packed_answers = perf_common.best_of(
        lambda: QueryEngine(store, scheme=scheme).batch_query(pairs), repeats=3
    )
    reference_time, reference_answers = perf_common.best_of(
        lambda: perf_common.reference_batch_query_hld(store, pairs), repeats=3
    )
    assert packed_answers == reference_answers
    speedup = reference_time / packed_time
    assert speedup >= 3.0, f"packed batch_query only {speedup:.2f}x over reference"


# -- machine-readable runner (BENCH_query_time.json) -------------------------


def _measure_kernel_section(gate_n: int, gate_pairs: int, repeats: int) -> dict:
    """Per-tier parse and batch-query throughput on the hld-fixed store.

    The parse comparison runs each tier's ``parse_checksum`` over every node
    (the native kernel's bulk word decode vs the packed-Python
    ``parse_many`` plus the same field fold), asserting the checksums agree
    — the same decoder certification the differential suite uses — and
    records ``native_speedup`` against the 5x acceptance gate.
    """
    from repro import kernels

    kernels.reset()
    probed = kernels.probe(full=True)
    tree = make_tree("random", gate_n, seed=23)
    scheme = HLDScheme()
    store = LabelStore.encode_tree(scheme, tree)
    nodes = list(range(store.n))
    pairs = random_pairs(tree, gate_pairs, seed=13)

    tiers_json: dict[str, dict] = {}
    checksums: set[int] = set()
    parse_times: dict[str, float] = {}
    saved = os.environ.get(kernels.ENV_VAR)
    try:
        for tier in kernels.TIER_ORDER:
            backend = kernels.get_backend(tier)
            if backend is None:
                tiers_json[tier] = {"available": False}
                continue
            checksum = backend.parse_checksum(store, scheme, nodes)
            row: dict = {"available": True}
            if checksum is not None:
                checksums.add(checksum)
                parse_time, _ = perf_common.best_of(
                    lambda: backend.parse_checksum(store, scheme, nodes),
                    repeats=repeats,
                )
                parse_times[tier] = parse_time
                row["parse_ops_per_sec"] = round(len(nodes) / parse_time, 1)
            os.environ[kernels.ENV_VAR] = tier
            kernels.reset()
            batch_time, _ = perf_common.best_of(
                lambda: QueryEngine(store, scheme=scheme).batch_query(pairs),
                repeats=repeats,
            )
            row["batch_query_ops_per_sec"] = round(len(pairs) / batch_time, 1)
            tiers_json[tier] = row
    finally:
        if saved is None:
            os.environ.pop(kernels.ENV_VAR, None)
        else:
            os.environ[kernels.ENV_VAR] = saved
        kernels.reset()
    if len(checksums) > 1:
        raise AssertionError(f"kernel tiers decoded different fields: {checksums}")

    native_speedup = None
    if "native" in parse_times and "python" in parse_times:
        native_speedup = round(parse_times["python"] / parse_times["native"], 2)
    return {
        "description": (
            "per-tier bulk parse (parse_checksum over every node) and "
            f"batch_query throughput, hld-fixed, n={gate_n}, best-of {repeats}"
        ),
        "selected": probed["selected"],
        "scheme": "hld-fixed",
        "n": gate_n,
        "tiers": tiers_json,
        "native_speedup": native_speedup,
        "required_speedup": 5.0,
        "pass": None if native_speedup is None else native_speedup >= 5.0,
    }


def run_perf_json(
    smoke: bool = False,
    out: str | None = None,
    warm: bool = False,
    backend: str | None = None,
) -> dict:
    """Measure batched query throughput and write ``BENCH_query_time.json``.

    Records ops/sec per scheme and size, and the headline gate: packed
    ``QueryEngine.batch_query`` vs the pre-packing string-backed pipeline
    (``perf_common.reference_batch_query_hld``) on an HLD store with n=4096
    and 10k random pairs (smoke mode shrinks both for CI).  ``backend``
    forces a :mod:`repro.kernels` tier for the whole run (the ``--backend``
    flag); the tier actually answering each row rides along in the row.

    ``warm=True`` adds the steady-state section: the same batch on an engine
    whose parsed-label LRU is already populated (every lookup a cache hit —
    what a long-running ``repro-labels serve`` process does on every request
    after the first touch), under uniform, Zipf-skewed and the structural
    sibling/khop workloads, next to the cold fresh-engine number.
    """
    from repro import kernels

    if backend is not None:
        os.environ[kernels.ENV_VAR] = backend
    kernels.reset()
    active = kernels.backend()

    table_sizes = [128] if smoke else [512, 2048]
    table_pairs = 256 if smoke else 2048
    gate_n = 512 if smoke else 4096
    gate_pairs = 1000 if smoke else 10000
    repeats = 3 if smoke else 7

    all_schemes = dict(EXACT_SCHEMES)
    schemes_json: dict[str, dict] = {}
    for scheme_name, factory in sorted(all_schemes.items()):
        schemes_json[scheme_name] = {}
        for n in table_sizes:
            tree = make_tree("random", n, seed=23)
            scheme = factory()
            store = LabelStore.encode_tree(scheme, tree)
            pairs = random_pairs(tree, table_pairs, seed=13)
            elapsed, _ = perf_common.best_of(
                lambda: QueryEngine(store, scheme=scheme).batch_query(pairs),
                repeats=repeats,
            )
            schemes_json[scheme_name][str(n)] = {
                "batch_query_ops_per_sec": round(len(pairs) / elapsed, 1),
                "pairs": len(pairs),
                "max_label_bits": store.max_label_bits,
                "backend": active.tier_for(scheme),
            }

    # the gate: packed vs reference on the HLD store
    tree = make_tree("random", gate_n, seed=23)
    scheme = HLDScheme()
    store = LabelStore.encode_tree(scheme, tree)
    pairs = random_pairs(tree, gate_pairs, seed=13)
    packed_time, packed_answers = perf_common.best_of(
        lambda: QueryEngine(store, scheme=scheme).batch_query(pairs),
        repeats=repeats,
    )
    reference_time, reference_answers = perf_common.best_of(
        lambda: perf_common.reference_batch_query_hld(store, pairs),
        repeats=repeats,
    )
    if packed_answers != reference_answers:
        raise AssertionError("packed and reference pipelines disagree")
    payload = {
        "benchmark": "query_time",
        "mode": "smoke" if smoke else "full",
        "backend": active.name,
        "schemes": schemes_json,
        "kernel": _measure_kernel_section(gate_n, gate_pairs, repeats),
        "gate": {
            "description": (
                "QueryEngine.batch_query on an HLD store vs the pre-PR "
                "string-backed pipeline (fresh engine per round, best-of "
                f"{repeats})"
            ),
            "scheme": "hld-fixed",
            "n": gate_n,
            "pairs": gate_pairs,
            "packed_ops_per_sec": round(gate_pairs / packed_time, 1),
            "reference_ops_per_sec": round(gate_pairs / reference_time, 1),
            "speedup": round(reference_time / packed_time, 2),
            "required_speedup": 5.0,
            "pass": reference_time / packed_time >= 5.0,
            "backend": active.tier_for(scheme),
        },
    }
    if warm:
        warm_json: dict[str, dict] = {}
        for scheme_name in ("freedman", "hld-fixed"):
            tree = make_tree("random", gate_n, seed=23)
            scheme = all_schemes[scheme_name]()
            store = LabelStore.encode_tree(scheme, tree)
            warm_json[scheme_name] = {}
            for workload, pairs in (
                ("uniform", random_pairs(tree, gate_pairs, seed=13)),
                ("zipf", zipf_pairs(tree, gate_pairs, skew=1.1, seed=13)),
                # structural shapes: adversarial same-parent pairs and
                # walk-local pairs (repro.generators.workloads)
                ("sibling", sibling_pairs(tree, gate_pairs, seed=13)),
                ("khop", khop_local_pairs(tree, gate_pairs, hops=4, seed=13)),
            ):
                cold_time, _ = perf_common.best_of(
                    lambda: QueryEngine(store, scheme=scheme).batch_query(pairs),
                    repeats=repeats,
                )
                engine = QueryEngine(store, scheme=scheme)
                engine.batch_query(pairs)  # populate the cache once
                # count hits/misses over the timed steady-state passes only,
                # not the populate pass (which would make the rate a fixed
                # repeats/(repeats+1) harness artifact)
                before = engine.cache_info()
                warm_time, _ = perf_common.best_of(
                    lambda: engine.batch_query(pairs), repeats=repeats
                )
                after = engine.cache_info()
                hits = after["hits"] - before["hits"]
                lookups = hits + after["misses"] - before["misses"]
                warm_json[scheme_name][workload] = {
                    "n": gate_n,
                    "pairs": gate_pairs,
                    "backend": active.tier_for(scheme),
                    "cold_ops_per_sec": round(gate_pairs / cold_time, 1),
                    "warm_ops_per_sec": round(gate_pairs / warm_time, 1),
                    "warm_speedup": round(cold_time / warm_time, 2),
                    "cache_hit_rate": round(hits / lookups, 4) if lookups else 0.0,
                }
        payload["warm"] = warm_json

    path = perf_common.write_json("BENCH_query_time.json", payload, out=out)
    print(f"wrote {path}")
    print(
        f"gate: {payload['gate']['speedup']}x "
        f"(required {payload['gate']['required_speedup']}x, "
        f"pass={payload['gate']['pass']})"
    )
    return payload


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="small CI sizes")
    parser.add_argument("--out", default=None, help="output path override")
    parser.add_argument(
        "--warm",
        action="store_true",
        help="also record steady-state warm-cache serving throughput",
    )
    parser.add_argument(
        "--backend",
        choices=["native", "python"],
        default=None,
        help="force one repro.kernels tier for the whole run "
        "(default: automatic selection; the per-tier kernel section "
        "measures all available tiers regardless)",
    )
    arguments = parser.parse_args()
    run_perf_json(
        smoke=arguments.smoke,
        out=arguments.out,
        warm=arguments.warm,
        backend=arguments.backend,
    )
