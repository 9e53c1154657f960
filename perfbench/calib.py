"""Host-speed calibration: every timed chunk is bracketed by a frozen routine.

The interpreter's speed on a shared host drifts by up to ~1.7x for seconds
at a time, so raw wall-clock timings of the same work disagree from run to
run.  A fixed pure-Python routine run just before and just after a chunk of
work measures the host's current speed; scaling the chunk by
``C_REF_MS / mean(cal_before, cal_after)`` reports it in *reference-host
units* — the time the chunk would have taken on a host where the routine
takes exactly ``C_REF_MS``.

FROZEN: :func:`calibrate` and :data:`C_REF_MS` define the unit of every
timed metric.  Editing either re-baselines every metric of every workload;
:data:`CAL_CHECKSUM` pins the routine's result so an accidental edit fails
loudly instead of silently shifting the baseline.
"""

from __future__ import annotations

import math
import time

#: milliseconds one :func:`calibrate` call takes on the reference host
#: (2-vCPU x86-64 container, CPython 3.11, fast state of the host)
C_REF_MS = 1.10

#: the value :func:`calibrate` returns; any edit to the routine changes it
CAL_CHECKSUM = 1660178041


def _mix(acc: int, i: int) -> int:
    return (acc * 31 + i) & 0xFFFFFFFF


def calibrate() -> int:
    """The frozen calibration workload: ~1 ms of mixed interpreter work.

    Integer arithmetic, a function call per step, dict stores, list growth
    and a periodic sort — the same instruction mix as the label encoders,
    parsers and protocol codecs the benchmark times.
    """
    acc = 0
    table: dict[int, int] = {}
    window: list[int] = []
    for i in range(3000):
        acc = _mix(acc, i)
        table[i & 511] = acc
        window.append(acc >> 3)
        if len(window) > 64:
            window.sort()
            del window[:32]
    folded = 0
    for key, value in table.items():
        folded ^= (key << 7) + value
    return (folded + sum(window)) & 0xFFFFFFFF


def calibration_ms() -> float:
    """The median of three timed :func:`calibrate` calls, in milliseconds."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        value = calibrate()
        times.append((time.perf_counter() - start) * 1000.0)
        if value != CAL_CHECKSUM:
            raise RuntimeError(
                "the frozen calibration routine was edited "
                f"(checksum {value} != {CAL_CHECKSUM}); every metric re-baselines"
            )
    times.sort()
    return times[1]


class Chunk:
    """One bracketed span of work: ``with timer.chunk() as chunk: ...``.

    After the block, ``raw_s`` is the wall time of the work alone and
    ``factor`` converts any raw duration measured inside it to
    reference-host units.
    """

    __slots__ = ("cal_before", "cal_after", "raw_s", "factor", "start")

    def __init__(self) -> None:
        self.cal_before = self.cal_after = self.raw_s = self.factor = 0.0
        self.start = 0.0

    @property
    def norm_s(self) -> float:
        return self.raw_s * self.factor


class ChunkTimer:
    """Runs chunks between calibration brackets and keeps their records.

    ``listener`` (the traced run's span recorder) is told when a chunk opens
    and closes, so spans can be attributed to it and scaled by its factor.
    """

    def __init__(self, listener=None) -> None:
        self.chunks: list[Chunk] = []
        self.listener = listener
        #: reference-host seconds measured so far: phases run until this
        #: reaches their length, so a run does the same amount of work
        #: whatever state the host is in
        self.elapsed = 0.0

    def chunk(self) -> "_Bracket":
        return _Bracket(self)

    @property
    def cal_samples(self) -> list[float]:
        out = []
        for chunk in self.chunks:
            out.append(chunk.cal_before)
            out.append(chunk.cal_after)
        return out

    def total_norm_s(self) -> float:
        return math.fsum(chunk.norm_s for chunk in self.chunks)

    def total_raw_s(self) -> float:
        return math.fsum(chunk.raw_s for chunk in self.chunks)


class _Bracket:
    __slots__ = ("_timer", "_chunk")

    def __init__(self, timer: ChunkTimer) -> None:
        self._timer = timer
        self._chunk = Chunk()

    def __enter__(self) -> Chunk:
        chunk = self._chunk
        chunk.cal_before = calibration_ms()
        listener = self._timer.listener
        if listener is not None:
            listener.open_chunk(len(self._timer.chunks))
        chunk.start = time.perf_counter()
        return chunk

    def __exit__(self, exc_type, exc, tb) -> None:
        chunk = self._chunk
        chunk.raw_s = time.perf_counter() - chunk.start
        listener = self._timer.listener
        chunk.cal_after = calibration_ms()
        chunk.factor = C_REF_MS / ((chunk.cal_before + chunk.cal_after) / 2.0)
        if listener is not None:
            listener.close_chunk(chunk.factor)
        if exc_type is None:
            self._timer.chunks.append(chunk)
            self._timer.elapsed += chunk.norm_s


# -- order statistics ----------------------------------------------------------


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def nearest_rank(ordered, fraction: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    index = max(0, math.ceil(fraction * len(ordered)) - 1)
    return float(ordered[index])


def tail_fraction(count: int, beyond: int = 10, cap: float = 0.99) -> float:
    """The highest percentile (at most ``cap``) with ``beyond`` samples above it.

    The reported tail of a run with ``count`` latency samples: p99 once
    there are at least 1000 samples, a lower percentile for shorter runs,
    so a tail value never rests on fewer than ten samples.
    """
    if count <= beyond:
        return 0.5
    return max(0.5, min(cap, math.floor(100.0 * (count - beyond) / count) / 100.0))
