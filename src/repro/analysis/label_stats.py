"""Per-scheme measurement: label sizes, encode time, query time, correctness.

All three scheme families are measured by one code path built on the unified
``scheme.query`` interface; only the per-family answer check differs.  Every
measurement also packs the labels into a :class:`repro.store.LabelStore` to
report *total* encoded space (store file bytes and summed label bits), the
honest counterpart of the per-label maxima the paper bounds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.oracles.exact_oracle import TreeDistanceOracle
from repro.store.label_store import LabelStore
from repro.trees.tree import RootedTree


@dataclass
class LabelMeasurement:
    """Outcome of measuring one scheme on one tree."""

    scheme: str
    family: str
    n: int
    max_bits: int
    average_bits: float
    total_bits: int
    store_bytes: int
    core_max_bits: int | None
    encode_seconds: float
    query_microseconds: float
    queries_checked: int
    mismatches: int
    extra: dict = field(default_factory=dict)

    def as_row(self) -> dict:
        """Flat dictionary for table formatting."""
        row = {
            "scheme": self.scheme,
            "family": self.family,
            "n": self.n,
            "max_bits": self.max_bits,
            "avg_bits": round(self.average_bits, 1),
            "total_bits": self.total_bits,
            "store_bytes": self.store_bytes,
            "core_max_bits": self.core_max_bits,
            "encode_s": round(self.encode_seconds, 3),
            "query_us": round(self.query_microseconds, 2),
            "mismatches": self.mismatches,
        }
        row.update(self.extra)
        return row


def _measure(
    scheme,
    tree: RootedTree,
    pairs: list[tuple[int, int]],
    family: str,
    oracle: TreeDistanceOracle | None,
    display_name: str,
    check: Callable[[object, int], bool],
    extra: dict | None = None,
) -> LabelMeasurement:
    """Shared measurement core: encode, pack, time queries, verify answers.

    ``check(answer, exact)`` decides whether one ``scheme.query`` answer is
    acceptable against the oracle's exact distance.
    """
    if oracle is None:
        oracle = TreeDistanceOracle(tree)

    start = time.perf_counter()
    labels = scheme.encode(tree)
    encode_seconds = time.perf_counter() - start

    sizes = [label.bit_length() for label in labels.values()]
    core_sizes = [
        label.distance_array_bits()
        for label in labels.values()
        if hasattr(label, "distance_array_bits")
    ]
    store = LabelStore.from_labels(scheme, labels)

    mismatches = 0
    start = time.perf_counter()
    for u, v in pairs:
        answer = scheme.query(labels[u], labels[v])
        if not check(answer, oracle.distance(u, v)):
            mismatches += 1
    elapsed = time.perf_counter() - start

    return LabelMeasurement(
        scheme=display_name,
        family=family,
        n=tree.n,
        max_bits=max(sizes),
        average_bits=sum(sizes) / len(sizes),
        total_bits=store.total_label_bits,
        store_bytes=store.file_bytes,
        core_max_bits=max(core_sizes) if core_sizes else None,
        encode_seconds=encode_seconds,
        query_microseconds=(elapsed / max(len(pairs), 1)) * 1e6,
        queries_checked=len(pairs),
        mismatches=mismatches,
        extra=extra or {},
    )


def measure_scheme(
    scheme,
    tree: RootedTree,
    pairs: list[tuple[int, int]],
    family: str = "?",
    oracle: TreeDistanceOracle | None = None,
) -> LabelMeasurement:
    """Encode a tree, measure label sizes and time/verify the queries."""
    return _measure(
        scheme,
        tree,
        pairs,
        family,
        oracle,
        display_name=scheme.name,
        check=lambda answer, exact: answer == exact,
    )


def measure_bounded_scheme(
    scheme,
    tree: RootedTree,
    pairs: list[tuple[int, int]],
    family: str = "?",
    oracle: TreeDistanceOracle | None = None,
) -> LabelMeasurement:
    """Like :func:`measure_scheme` but for k-distance schemes."""
    k = scheme.k
    return _measure(
        scheme,
        tree,
        pairs,
        family,
        oracle,
        display_name=f"{scheme.name}(k={k})",
        check=lambda answer, exact: answer == (exact if exact <= k else None),
        extra={"k": k},
    )


def measure_approximate_scheme(
    scheme,
    tree: RootedTree,
    pairs: list[tuple[int, int]],
    family: str = "?",
    oracle: TreeDistanceOracle | None = None,
) -> LabelMeasurement:
    """Like :func:`measure_scheme` but for (1+eps)-approximate schemes."""
    worst = {"ratio": 1.0}

    def check(answer, exact) -> bool:
        if exact == 0:
            return answer == 0
        ratio = answer / exact
        worst["ratio"] = max(worst["ratio"], ratio)
        return 1.0 - 1e-9 <= ratio <= 1.0 + scheme.epsilon + 1e-9

    measurement = _measure(
        scheme,
        tree,
        pairs,
        family,
        oracle,
        display_name=f"{scheme.name}(eps={scheme.epsilon})",
        check=check,
        extra={"eps": scheme.epsilon},
    )
    measurement.extra["worst_ratio"] = round(worst["ratio"], 4)
    return measurement
