"""Lightweight request tracing: spans, traces, and the server-side ring.

No third-party tracing stack — a span here is a name plus two
``time.monotonic()`` readings, and a trace is a handful of spans that cover
one request's path through the server:

    accept -> frame decode -> coalescer queue wait -> kernel batch
           -> result encode -> transport write

The pieces:

:class:`Span`
    the timing primitive.  ``with Span("batch") as span: ...`` or
    explicit :meth:`Span.finish`; ``span.ms`` is the duration.  Completed
    spans can also be built directly from a measured duration
    (:meth:`Span.completed`) — the server's hot path captures raw
    timestamps and assembles spans only for sampled requests.

:class:`Trace`
    one request's spans plus identity: the client-assigned ``trace_id``
    (carried as an additive RSP/1 field), the member name, the worker
    pid/slot and — crucially for rolling reloads — the ``store_generation``
    the request was answered under.

:class:`TraceRecorder`
    the per-worker sink: a bounded ring of recent traces plus a slow-query
    log (requests whose total latency crossed ``slow_ms``).  Both are
    exposed over the wire via ``OP_TRACE`` and the ``repro-labels trace``
    CLI; memory stays bounded no matter the traffic.

Traces cost nothing unless requested: an untraced request never allocates
a span, and a traced one adds a tuple and a few clock reads.
"""

from __future__ import annotations

import time
from collections import deque

#: the named stages of a served QUERY, in request-path order.  BATCH
#: requests skip ``queue`` (they never enter the coalescer).
STAGES = ("decode", "queue", "batch", "encode", "write")


class Span:
    """One named, monotonic-clock timed section of a request."""

    __slots__ = ("name", "started", "ended")

    def __init__(self, name: str, started: float | None = None) -> None:
        self.name = name
        self.started = time.monotonic() if started is None else started
        self.ended: float | None = None

    def finish(self, ended: float | None = None) -> "Span":
        """Mark the span complete (idempotent); returns self for chaining."""
        if self.ended is None:
            self.ended = time.monotonic() if ended is None else ended
        return self

    @property
    def ms(self) -> float:
        """Duration in milliseconds (0.0 while unfinished)."""
        if self.ended is None:
            return 0.0
        return (self.ended - self.started) * 1000.0

    @classmethod
    def completed(cls, name: str, ms: float) -> "Span":
        """A finished span built from an externally measured duration."""
        span = cls(name, started=0.0)
        span.ended = ms / 1000.0
        return span

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc) -> None:
        self.finish()

    def to_dict(self) -> dict:
        return {"stage": self.name, "ms": round(self.ms, 4)}

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"Span({self.name!r}, {self.ms:.3f}ms)"


class Trace:
    """One traced request: identity plus its ordered spans."""

    __slots__ = ("trace_id", "op", "member", "spans", "total_ms", "attrs")

    def __init__(
        self,
        trace_id: int,
        op: str,
        member: str = "",
        *,
        total_ms: float = 0.0,
        attrs: dict | None = None,
    ) -> None:
        self.trace_id = trace_id
        self.op = op
        self.member = member
        self.spans: list[Span] = []
        self.total_ms = total_ms
        self.attrs = attrs or {}

    def add(self, span: Span) -> None:
        self.spans.append(span)

    def to_dict(self) -> dict:
        payload = {
            "trace_id": self.trace_id,
            "op": self.op,
            "member": self.member,
            "total_ms": round(self.total_ms, 4),
            "spans": [span.to_dict() for span in self.spans],
        }
        payload.update(self.attrs)
        return payload


class TraceRecorder:
    """Bounded ring of recent traces plus the slow-query log.

    ``slow_ms=None`` disables the slow log; the ring always runs (it only
    fills when clients actually send trace ids, so an untraced fleet pays
    nothing).
    """

    def __init__(self, ring: int = 256, slow_ms: float | None = None) -> None:
        if ring < 1:
            raise ValueError("trace ring must hold at least one trace")
        self.slow_ms = slow_ms
        self._ring: deque[dict] = deque(maxlen=ring)
        self._slow: deque[dict] = deque(maxlen=128)
        self.recorded = 0
        self.slow_recorded = 0

    def record(self, trace: Trace | dict) -> None:
        """Add one completed trace to the ring (oldest evicted)."""
        payload = trace.to_dict() if isinstance(trace, Trace) else trace
        self._ring.append(payload)
        self.recorded += 1

    def maybe_slow(self, total_ms: float, entry: dict) -> bool:
        """Log ``entry`` when ``total_ms`` crosses the slow threshold."""
        if self.slow_ms is None or total_ms < self.slow_ms:
            return False
        self._slow.append(dict(entry, ms=round(total_ms, 4)))
        self.slow_recorded += 1
        return True

    def snapshot(self, limit: int = 32, include_slow: bool = True) -> dict:
        """The OP_TRACE payload: newest traces first, plus the slow log."""
        traces = list(self._ring)
        if limit > 0:
            traces = traces[-limit:]
        payload: dict = {
            "traces": traces[::-1],
            "recorded": self.recorded,
            "ring": self._ring.maxlen,
            "slow_ms": self.slow_ms,
        }
        if include_slow:
            payload["slow"] = list(self._slow)[::-1]
            payload["slow_recorded"] = self.slow_recorded
        return payload
