"""Fixed-boundary log-spaced latency histograms.

These histograms are the serving stack's only latency record: every
worker keeps one for end-to-end QUERY latency and one per request stage,
detailed STATS carry their snapshots, and fleet percentiles come from the
merged buckets.  A :class:`Histogram` has the three properties a fleet
needs:

* **fixed boundaries** — every worker in a fleet buckets into the *same*
  log-spaced boundaries (factor √2 from 10 µs to ~7.4 s in milliseconds),
  so merging two histograms is exact bucket-wise addition, regardless of
  how many samples either side has seen or dropped;
* **bounded state** — ~40 integers per histogram however much traffic
  flows, cheap enough to keep one per request stage;
* **Prometheus-compatible** — :meth:`cumulative` yields the monotone
  ``le``-bucket counts the text exposition format wants.

Percentiles come from the bucket counts (:meth:`percentile` returns the
upper boundary of the bucket holding the nearest rank — a ≤ √2
quantisation, honest about its resolution), so fleet percentiles are
derived from *merged counts*, never from averaging per-worker percentiles.
"""

from __future__ import annotations

import math
from bisect import bisect_left

#: default bucket boundaries in milliseconds: log-spaced by √2 from 10 µs
#: to ~7.4 s.  40 finite buckets + 1 overflow bucket; every histogram in a
#: fleet must share boundaries for merges to be exact.
DEFAULT_BOUNDS_MS: tuple[float, ...] = tuple(
    round(0.01 * math.sqrt(2.0) ** i, 6) for i in range(40)
)


class Histogram:
    """A fixed-boundary histogram with exact bucket-wise merge.

    ``counts[i]`` holds observations ``value <= bounds[i]`` (after the
    previous bucket); ``counts[-1]`` is the overflow (+Inf) bucket.
    """

    __slots__ = ("bounds", "counts", "total", "sum")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BOUNDS_MS) -> None:
        self.bounds = tuple(bounds)
        if not self.bounds or list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be a sorted non-empty sequence")
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation (same unit as the bounds)."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += 1
        self.sum += value

    def observe_many(self, value: float, count: int) -> None:
        """Record ``count`` observations of the same value in one step."""
        self.counts[bisect_left(self.bounds, value)] += count
        self.total += count
        self.sum += value * count

    def merge(self, other: "Histogram") -> None:
        """Bucket-wise add ``other`` into this histogram (exact)."""
        if other.bounds != self.bounds:
            raise ValueError(
                "cannot merge histograms with different bucket boundaries"
            )
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.total += other.total
        self.sum += other.sum

    def percentile(self, fraction: float) -> float:
        """Nearest-rank percentile estimated from the bucket counts.

        Returns the upper boundary of the bucket containing the target rank
        (the largest finite boundary for overflow samples) — an estimate
        honest to the bucket resolution, 0.0 when empty.
        """
        if not self.total:
            return 0.0
        rank = max(1, math.ceil(fraction * self.total))
        seen = 0
        for index, count in enumerate(self.counts):
            seen += count
            if seen >= rank:
                return self.bounds[index] if index < len(self.bounds) else self.bounds[-1]
        return self.bounds[-1]  # pragma: no cover - rank <= total by construction

    def cumulative(self) -> list[int]:
        """Monotone cumulative counts per ``le`` bucket (overflow last)."""
        out: list[int] = []
        running = 0
        for count in self.counts:
            running += count
            out.append(running)
        return out

    # -- wire/JSON round trip -------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON-safe snapshot (rides in STATS payloads)."""
        return {
            "bounds_ms": list(self.bounds),
            "counts": list(self.counts),
            "count": self.total,
            "sum": round(self.sum, 6),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Histogram":
        """Rebuild a histogram from :meth:`to_dict` output."""
        hist = cls(tuple(payload["bounds_ms"]))
        counts = list(payload["counts"])
        if len(counts) != len(hist.counts):
            raise ValueError("histogram payload counts do not match its bounds")
        hist.counts = [int(count) for count in counts]
        hist.total = int(payload.get("count", sum(hist.counts)))
        hist.sum = float(payload.get("sum", 0.0))
        return hist


def merge_histogram_dicts(payloads: list[dict]) -> Histogram | None:
    """Fold many :meth:`Histogram.to_dict` payloads into one histogram.

    Returns ``None`` when the list is empty.  This is the fleet-merge path:
    per-worker STATS carry histogram snapshots and the merged buckets are
    exact sums, so fleet percentiles weight every worker by its true sample
    count — a freshly restarted worker contributes exactly its few samples.
    """
    merged: Histogram | None = None
    for payload in payloads:
        hist = Histogram.from_dict(payload)
        if merged is None:
            merged = hist
        else:
            merged.merge(hist)
    return merged
