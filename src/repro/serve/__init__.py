"""``repro.serve`` — serve packed distance labels over TCP.

The paper's labels are the perfect network-serving unit: a query needs only
two small labels, so a server holds nothing but a packed
:class:`~repro.api.DistanceIndex` (or a multi-tree
:class:`~repro.api.IndexCatalog`) and answers from bits.  This package adds
the missing network surface on top of the ``LabelStore`` → ``parse_many`` →
``QueryEngine`` pipeline:

* :class:`ServingCore` / :class:`LabelServer` (:mod:`repro.serve.server`)
  — the socket-free per-process serving engine and its asyncio TCP
  wrapper.  The engine's **micro-batching coalescer** gathers every QUERY
  that arrives in one event-loop tick, across all connections, into a
  single ``QueryEngine.batch_query`` call per member and a single response
  write per connection; a bounded pending queue sheds overload with BUSY,
  and MATRIX requests run on a thread executor;
* :class:`FleetSupervisor` (:mod:`repro.serve.supervisor`) — shard-per-core
  serving as a *supervised* fleet: N pre-forked workers (one
  :class:`LabelServer` each) sharing one listening address via
  ``SO_REUSEPORT`` (inherited-socket fallback); crashed workers are
  re-forked with backoff (:class:`~repro.serve.retry.RestartPolicy`, crash
  loops raise :class:`FleetCrashLoop`), ``reload()`` rolls a re-encoded
  store through the fleet one drained worker at a time, and SIGTERM
  propagates a drain-then-exit shutdown with fleet-merged statistics;
* :class:`AsyncLabelClient` (:mod:`repro.serve.client`) — the one
  client: connection reuse, request pipelining (every request frame of
  one event-loop tick leaves in a single corked write),
  transparent BUSY retry-with-jitter and reconnect-on-EOF (a dropped
  worker is a retryable event, not an error), returning the same typed
  :class:`~repro.api.QueryResult` values as in-process queries;
  :class:`LabelClient` is its blocking façade (a private event loop, one
  ``timeout`` deadline per call) for scripts and REPLs;
* fault injection (:mod:`repro.serve.faults`) — ``REPRO_FAULTS``-driven
  crashes/stalls honored at worker dispatch/accept/start points, plus the
  loadgen's ``chaos`` mode, so the supervision paths are tested instead of
  trusted;
* observability (:mod:`repro.obs`) — per-request tracing with
  per-stage spans (decode/queue/batch/encode/write), log-spaced latency
  histograms merged bucket-wise across the fleet, a Prometheus text
  endpoint (``serve --metrics-port``), a slow-query log
  (``serve --slow-ms``) and an opt-in ``cProfile`` window
  (``REPRO_PROFILE`` / SIGUSR2);
* the wire protocol (:mod:`repro.serve.protocol`), summarised below.

On the command line: ``repro-labels serve <store-or-catalog>
[--workers N] [--metrics-port P]``, ``repro-labels loadgen
[--chaos kill-worker:t=2] [--trace-every N]``, ``repro-labels
fleet-status`` and ``repro-labels trace`` (see ``repro-labels serve
--help``).

Wire protocol (RSP/1)
---------------------

Every message — both directions — is one *frame*::

    frame    :=  uvarint(len(body)) body
    body     :=  opcode:u8 request_id:uvarint payload

using the same LEB128 uvarints as the ``LabelStore``/``IndexCatalog`` file
formats (:mod:`repro.encoding.varint`).  Clients choose ``request_id``
freely and responses echo it: any number of requests may be in flight, and
a coalescing server may answer them out of order.

Request payloads (``name`` is a uvarint-length-prefixed UTF-8 member name;
empty selects the sole index of a single-store server)::

    QUERY  (0x01)  name u:uvarint v:uvarint [suffix]
    BATCH  (0x02)  name count:uvarint (u:uvarint v:uvarint){count} [suffix]
    MATRIX (0x03)  name count:uvarint explicit:u8 node:uvarint{count}
                   -- explicit=0 means "all nodes" (count is then 0)
    STATS  (0x04)  name [detail:u8]  -- empty name = server-wide counters
    INFO   (0x05)              -- no payload
    TRACE  (0x06)  limit:uvarint slow:u8  -- recent traces + slow log

    suffix :=  (tag:u8 value:uvarint)*    -- optional trailing fields in
               -- ascending tag order: 0x01 trace_id (0x02 is retired)

Response payloads::

    RESULT       (0x81)  kind:u8 [ratio:f64be] count:uvarint value{count}
    STATS_RESULT (0x83)  len:uvarint json-utf8
    INFO_RESULT  (0x84)  len:uvarint json-utf8
    TRACE_RESULT (0x85)  len:uvarint json-utf8
    BUSY         (0xFE)  retry_after_ms:uvarint   -- backpressure shed
    ERROR        (0xFF)  len:uvarint utf8-message

``kind`` preserves the scheme family semantics end to end:

* ``0`` exact — each value is ``uvarint(distance)``;
* ``1`` bounded — each value is ``0x00`` (beyond the scheme's k) or
  ``0x01 uvarint(distance)``;
* ``2`` approximate — a big-endian IEEE-754 double per value, preceded by
  one double holding the guaranteed ratio bound ``1 + eps``.

MATRIX results flatten row-major; the client reshapes (it knows the node
count).

The hot lane: on the native kernel tier both ends split their receive
buffers in C (:class:`repro.kernels.native.WireCodec`).  A *plain* QUERY —
no suffix, nothing after ``v``, every varint within 9 bytes — takes the
lane: the server scans each run of them with one member name into
``int64`` columns (request ids, flat pairs), queues the run as one
coalescer entry, answers a member's runs with one flat
``QueryEngine.batch_query`` call and writes each connection's exact
RESULT frames from the answer column in C.  Plain exact single-value
RESULT frames resolve the client's futures from columns the same way.
Everything else — traced QUERYs, BATCH, MATRIX, STATS, INFO,
TRACE, non-exact kinds, and every frame on the python tier or under a
``REPRO_FAULTS`` plan — goes through :mod:`repro.serve.protocol`'s
decoder and encoder, which define the bytes; ``tests/test_serve_fuzz.py``
holds both paths to the same responses.

Every worker of a fleet serves every member: a catalog member opens lazily
in whichever worker its first query lands on, since two labels are all an
answer needs.

ERROR and BUSY responses are request-scoped — the connection stays usable
— while unparseable bytes close the connection.  BUSY is the
additive ``"busy"`` capability of RSP/1 (advertised in the INFO payload's
``features`` list): an overloaded server sheds the request instead of
queueing it, and the clients retry with jittered backoff.  The additive
``"generation"`` capability means INFO carries a ``store`` block (path,
bytes, content-hash ``generation``) and STATS a ``store_generation``
field, so rolling reloads are observable over the wire.  The additive
``"tracing"`` capability covers the optional ``0x01 trace_id`` suffix
field on QUERY/BATCH (servers that predate it ignore trailing request
bytes, so stamped requests degrade to untraced ones) and the TRACE
opcode; a request without suffix fields is byte-identical to its
pre-suffix encoding.  Response opcode ``0xFD`` and suffix tag ``0x02``
belonged to a withdrawn member-routing capability and are never reused; a
request from an old client still carrying the ``0x02`` field is served in
place, as any unknown suffix field is.
"""

from __future__ import annotations

from repro.serve.client import (
    AsyncLabelClient,
    LabelClient,
    ServerBusy,
    ServerError,
)
from repro.serve.protocol import ProtocolError
from repro.serve.retry import RestartPolicy
from repro.serve.server import LabelServer, ServingCore, serve

#: names served by :mod:`repro.serve.supervisor`, imported on first use: a
#: single-process server or a client never loads the fleet's
#: ``multiprocessing`` machinery
_SUPERVISOR_NAMES = ("FleetSupervisor", "FleetCrashLoop", "store_generation")


def __getattr__(name: str):
    if name in _SUPERVISOR_NAMES:
        from repro.serve import supervisor

        return getattr(supervisor, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ServingCore",
    "LabelServer",
    "FleetSupervisor",
    "FleetCrashLoop",
    "RestartPolicy",
    "store_generation",
    "serve",
    "LabelClient",
    "AsyncLabelClient",
    "ServerError",
    "ServerBusy",
    "ProtocolError",
]
