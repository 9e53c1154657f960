"""The per-process serving engine and its asyncio TCP wrapper.

Two layers, split so the shard-per-core supervisor can reuse the whole
request path in every worker process:

:class:`ServingCore`
    the socket-free serving engine — member resolution, the micro-batching
    coalescer, bounded-pending backpressure, MATRIX executor offload and
    all statistics.  It needs a running
    event loop but owns no listening socket.

:class:`LabelServer`
    a ``ServingCore`` plus asyncio TCP lifecycle: bind (fresh address,
    ``SO_REUSEPORT`` shared address, or an inherited socket), serve, stop.
    Single-process callers use it exactly as before;
    :mod:`repro.serve.supervisor` runs one per forked worker.

The core's defining feature is the **micro-batching coalescer**: QUERY
requests are not answered one at a time.  Each run of them from one
connection (on the native tier a run of plain frames the C scanner turned
into ``int64`` columns, otherwise one decoded QUERY) is appended to a
per-member pending list and the flush is scheduled with ``loop.call_soon``,
which runs *after* every ``data_received`` callback of the current event-loop
tick — so all queries that arrived in this tick, across every connection,
are answered by **one** :meth:`QueryEngine.batch_query` call per member.
That call decodes each distinct endpoint once (warming the engine's label
cache for every future tick) and the responses are written back with one
``transport.write`` per connection instead of one per request.  Under a
pipelined client the serving cost per query drops to a share of one
scan, one batch call, one C encode and one write.

Two overload/latency features ride on the same structure:

* **backpressure** — the pending-query queue is bounded (``max_pending``);
  beyond it, new QUERY requests are shed immediately with an ``OP_BUSY``
  response instead of growing the queue, and the clients retry with jitter;
* **MATRIX offload** — matrix requests run on a thread executor through
  :meth:`QueryEngine.matrix_into`, so an n²/2-query matrix no longer stalls
  the coalescer tick (concurrent offloads are capped; excess gets BUSY).

``coalesce=False`` keeps the identical code path but flushes after every
request (a batch of one) — the naive serving baseline that
``benchmarks/bench_serve_throughput.py`` measures the coalescer against.
"""

from __future__ import annotations

import asyncio
import os
import time
from array import array

from repro import kernels
from repro.api.catalog import CatalogError, IndexCatalog
from repro.api.index import DistanceIndex
from repro.obs.hist import Histogram
from repro.obs.trace import STAGES, Span, Trace, TraceRecorder
from repro.scale.memory import current_rss_bytes
from repro.serve import faults, protocol
from repro.serve.metrics import SERIES
from repro.store.label_store import StoreError


class _Member:
    """One servable index plus the constants its responses need."""

    __slots__ = ("name", "index", "kind_code", "ratio_bound", "pending", "queued")

    def __init__(self, name: str, index: DistanceIndex) -> None:
        self.name = name
        self.index = index
        self.kind_code = protocol.KIND_CODES[index.kind]
        self.ratio_bound = (
            1.0 + index.scheme.epsilon
            if index.kind == "approximate"
            else (1.0 if index.kind == "exact" else None)
        )
        #: coalescer queue, one entry per run of QUERYs from one connection:
        #: ``(connection, count, ids, pairs, enqueued_at, trace)``.  A run the
        #: native hot lane scanned holds ``array('q')`` columns (request ids,
        #: flat ``(u, v)`` pairs); a QUERY the Python decoder read is a run of
        #: one with ``(request_id,)`` and ``(u, v)``.  ``trace`` is
        #: ``(trace_id, arrived, decoded)`` for a request carrying the
        #: additive trace-id field and ``None`` otherwise.
        self.pending: list[tuple] = []
        self.queued = 0  #: QUERYs in ``pending``


class ServingCore:
    """The per-process serving engine (socket-free).

    ``target`` is a :class:`DistanceIndex` (served under the empty member
    name) or an :class:`IndexCatalog` (members addressed by name; closed
    members open lazily on first query, exactly as in-process).
    """

    def __init__(
        self,
        target: DistanceIndex | IndexCatalog,
        *,
        coalesce: bool = True,
        max_batch: int = 8192,
        max_matrix: int = 1024,
        max_pending: int = 65536,
        max_matrix_inflight: int = 2,
        slot: int = 0,
        restarts: int = 0,
        generation: dict | None = None,
        slow_ms: float | None = None,
        trace_ring: int = 256,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if max_matrix < 1:
            raise ValueError("max_matrix must be at least 1")
        if max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        if max_matrix_inflight < 1:
            raise ValueError("max_matrix_inflight must be at least 1")
        if slow_ms is not None and slow_ms < 0:
            raise ValueError("slow_ms must be non-negative")
        if trace_ring < 1:
            raise ValueError("trace_ring must be at least 1")
        self._catalog: IndexCatalog | None = None
        self._members: dict[str, _Member] = {}
        if isinstance(target, IndexCatalog):
            self._catalog = target
        elif isinstance(target, DistanceIndex):
            self._members[""] = _Member("", target)
        else:
            raise TypeError(
                f"target must be a DistanceIndex or IndexCatalog, got {type(target).__name__}"
            )
        self.coalesce = coalesce
        self.max_batch = max_batch
        #: MATRIX responses are bounded in size even though they run off the
        #: event loop: an n-node matrix costs n^2/2 queries of executor time
        #: and one O(n^2) response frame
        self.max_matrix = max_matrix
        #: total QUERYs allowed in the coalescer across all members; beyond
        #: this the server sheds load with BUSY instead of queueing
        self.max_pending = max_pending
        self.max_matrix_inflight = max_matrix_inflight
        #: the native tier's wire codec for plain QUERY/RESULT frames, or
        #: ``None``: the python tier, and a fault plan, which fires once per
        #: request, take every frame through ``protocol.decode_request``
        self._faults = faults.plan_for(slot)
        self._codec = kernels.backend().wire_codec() if self._faults is None else None
        self._flush_scheduled = False
        self._dirty: list[_Member] = []
        self.matrix_inflight = 0  #: MATRIX requests on the executor right now
        #: supervision metadata: which fleet slot this worker occupies, how
        #: many times that slot has been restarted, and the generation
        #: (content hash + path) of the served store file — all reported in
        #: STATS/INFO so clients can observe restarts and rolling reloads
        self.slot = slot
        self.restarts = restarts
        self.generation = generation
        #: open _Connection objects, so a draining worker can close them
        self._connections: set = set()

        # -- serving statistics ------------------------------------------
        self.started_at = time.monotonic()
        self.queries = 0  #: individual QUERY answers sent
        self.batch_requests = 0  #: OP_BATCH requests served
        self.batch_request_pairs = 0
        self.matrix_requests = 0
        self.matrix_offloaded = 0  #: MATRIX requests run on the executor
        #: coalescer flushes: one per member batch call, including a
        #: poisoned call that is then answered pair by pair
        self.flushes = 0
        self.coalesced = 0  #: QUERY answers produced by those flushes
        self.errors = 0
        self.busy_rejections = 0  #: requests shed with OP_BUSY
        self.pending_total = 0  #: QUERYs currently queued in the coalescer
        self.connections_total = 0
        self.connections_open = 0
        #: fixed-boundary histograms, the only latency record: exact fleet
        #: merges are bucket-wise sums, so percentiles survive worker
        #: restarts and rolling reloads
        self.latency_hist = Histogram()  #: QUERY enqueue -> response written
        self.stage_hist = {stage: Histogram() for stage in STAGES}
        #: bounded ring of recent traces plus the slow-query log
        self.tracer = TraceRecorder(ring=trace_ring, slow_ms=slow_ms)

    # -- member resolution ---------------------------------------------------

    def member(self, name: str) -> _Member:
        """The member serving ``name`` (lazily opened for catalogs).

        A member whose bytes fail to parse (truncated file, corrupt blob)
        raises :class:`CatalogError` naming the member — a *request-scoped*
        failure answered with ``OP_ERROR``, never a connection-killing one,
        so the other members keep serving.
        """
        member = self._members.get(name)
        if member is None:
            if self._catalog is None:
                raise CatalogError(
                    f"this server fronts a single index; use the empty member "
                    f"name, not {name!r}"
                )
            try:
                index = self._catalog.index(name)
            except Exception as error:
                if isinstance(error, CatalogError) and name not in self._catalog:
                    raise  # unknown member: the message already names it
                raise CatalogError(
                    f"catalog member {name!r} failed to open: {error}"
                ) from error
            member = _Member(name, index)
            self._members[name] = member
        return member

    def info(self) -> dict:
        """The INFO payload: one row per member name."""
        members: dict[str, dict] = {}
        if self._catalog is not None:
            for row in self._catalog.describe():
                members[row["name"]] = {
                    "spec": row["spec"],
                    "kind": row["kind"],
                    "n": row["n"],
                    "open": row["open"],
                }
        else:
            members[""] = dict(self._members[""].index.describe(), open=True)
        payload = {
            "protocol": protocol.PROTOCOL_VERSION,
            "features": list(protocol.PROTOCOL_FEATURES),
            "worker": os.getpid(),
            "slot": self.slot,
            "restarts": self.restarts,
            "members": members,
        }
        if self.generation is not None:
            payload["store"] = dict(self.generation)
        return payload

    def stats(self, name: str = "", detail: bool = False) -> dict:
        """The STATS payload; ``name`` adds one member's index statistics.

        ``latency_ms`` covers QUERY requests only (enqueue to flush, the
        number a per-query client observes); BATCH/MATRIX requests are
        counted but would skew the per-query percentiles and stay out.
        Percentiles come from the fixed-boundary latency histogram (the
        server's only latency record), so they are quantised to its bucket
        bounds but never truncated by a window.  ``detail`` embeds the
        histogram snapshots (latency + per-stage) so fleet consumers — the
        supervisor's shutdown summary, the metrics endpoint, the loadgen
        report — can merge latency across workers bucket-wise and report
        true fleet percentiles; plain monitoring polls leave it off and stay
        a few hundred bytes.  The plain counters are the rows of
        :data:`repro.serve.metrics.SERIES` that name an attribute here.
        """
        elapsed = max(time.monotonic() - self.started_at, 1e-9)
        answered = self.queries + self.batch_request_pairs
        payload = {
            "worker": os.getpid(),
            "slot": self.slot,
            "uptime_seconds": round(elapsed, 3),
            "mean_batch_size": round(self.coalesced / self.flushes, 2) if self.flushes else 0.0,
            "qps": round(answered / elapsed, 1),
            "rss_bytes": current_rss_bytes(),
            "kernel": kernels.backend_name(),
            "latency_ms": {
                "p50": round(self.latency_hist.percentile(0.50), 4),
                "p99": round(self.latency_hist.percentile(0.99), 4),
                "samples": self.latency_hist.total,
            },
            "coalescing": self.coalesce,
            "members_open": sorted(self._members),
        }
        for series in SERIES:
            if series.attr is not None:
                payload[series.key] = getattr(self, series.attr)
        if self.generation is not None:
            payload["store_generation"] = self.generation.get("generation")
        if detail:
            payload["latency_ms"]["histogram"] = self.latency_hist.to_dict()
            payload["stages"] = {
                stage: hist.to_dict() for stage, hist in self.stage_hist.items()
            }
            payload["traces"] = {
                "recorded": self.tracer.recorded,
                "slow_ms": self.tracer.slow_ms,
            }
        if name or self._catalog is None:
            # a read-only stats probe must not force a lazy catalog member
            # open; closed members report ``open: false`` and nothing else
            member = self._members.get(name)
            if member is None:
                if self._catalog is None or name not in self._catalog:
                    raise CatalogError(
                        f"no index named {name!r} on this server"
                    )
                payload["index"] = {"name": name, "open": False}
            else:
                cache = member.index.engine.cache_info()
                payload["index"] = dict(
                    member.index.describe(),
                    name=name,
                    open=True,
                    cache=cache,
                    cache_hit_rate=cache["hit_rate"],
                )
        return payload

    # -- the micro-batching coalescer ----------------------------------------

    def enqueue(
        self,
        member: _Member,
        connection,
        count: int,
        ids,
        pairs,
        trace: tuple | None = None,
    ) -> None:
        """Queue a run of ``count`` QUERYs for the next flush (or flush now).

        ``ids`` and ``pairs`` are the run's request ids and flat ``(u, v)``
        pairs (see :attr:`_Member.pending`).  The run is cut where the queue
        reaches ``max_batch`` for the member (a flush) or ``max_pending``
        in all, beyond which each request is shed immediately with BUSY —
        bounded memory and bounded latency for everything already queued, at
        the price of the client retrying.  Naive mode flushes every QUERY
        alone.  ``trace`` is ``(trace_id, arrived, decoded)`` for a request
        carrying the additive trace-id field.
        """
        while count:
            room = self.max_pending - self.pending_total
            if room <= 0:
                self.busy_rejections += count
                hint = self._retry_hint_ms()
                for request_id in ids:
                    connection.send(protocol.encode_busy(request_id, hint))
                return
            take = (
                1
                if count == 1 or not self.coalesce
                else min(count, room, self.max_batch - member.queued)
            )
            pending = member.pending
            if not pending:
                self._dirty.append(member)
            if take == count:
                pending.append((connection, count, ids, pairs, time.monotonic(), trace))
            else:
                pending.append(
                    (connection, take, ids[:take], pairs[: 2 * take], time.monotonic(), trace)
                )
                ids, pairs = ids[take:], pairs[2 * take :]
            count -= take
            member.queued += take
            self.pending_total += take
            if not self.coalesce or member.queued >= self.max_batch:
                self._flush()
            elif not self._flush_scheduled:
                self._flush_scheduled = True
                # call_soon runs after every data_received callback already
                # queued in this event-loop tick: that is the coalescing window
                asyncio.get_running_loop().call_soon(self._flush)

    def _retry_hint_ms(self) -> int:
        """Backoff hint sent with BUSY: roughly one coalescer drain."""
        return 1 + self.pending_total // 10000

    def _flush(self) -> None:
        """Answer every pending query with one batch call per member.

        A member's runs join into one flat ``array('q')`` of pairs for
        :meth:`QueryEngine.batch_query` (on the python tier, where every run
        is one decoded QUERY, into a list of pairs).  A batch call that
        raises (one out-of-range pair fails the whole call) is retried pair
        by pair, so only the offending requests get ``OP_ERROR``; the good
        ones take the same grouping, encode and write path as an unpoisoned
        flush, which counts once in ``flushes`` either way.  Histograms take
        one ``observe_many`` per run, whose QUERYs share their times.
        """
        self._flush_scheduled = False
        if not self._dirty:
            return
        dirty, self._dirty = self._dirty, []
        now = time.monotonic
        latency_hist = self.latency_hist
        queue_hist = self.stage_hist["queue"]
        slow_ms = self.tracer.slow_ms
        for member in dirty:
            pending = member.pending
            if not pending:
                continue
            member.pending = []
            self.pending_total -= member.queued
            member.queued = 0
            flush_start = now()
            try:
                if self._codec is None:
                    # every entry is one decoded QUERY: its pair as is
                    batch = [entry[3] for entry in pending]
                else:
                    batch = array("q")
                    for entry in pending:
                        batch.extend(entry[3])
                answers = member.index.engine.batch_query(batch)
            except (StoreError, ValueError, OverflowError):
                # one bad pair must not poison the whole coalesced batch
                pending, answers = self._answer_alone(member, pending)
            finished = now()
            self.flushes += 1
            self.coalesced += len(answers)
            self.queries += len(answers)
            self.stage_hist["batch"].observe((finished - flush_start) * 1000.0)
            # group per connection, then encode each connection's response
            # frames as one block and write it once
            answered: dict[object, list] = {}
            traced: list[tuple] = []
            start = 0
            for connection, count, ids, pairs, enqueued, trace in pending:
                run = answers[start : start + count]
                start += count
                total_ms = (finished - enqueued) * 1000.0
                latency_hist.observe_many(total_ms, count)
                queue_hist.observe_many((flush_start - enqueued) * 1000.0, count)
                if slow_ms is not None and total_ms >= slow_ms:
                    for at in range(0, 2 * count, 2):
                        self.tracer.maybe_slow(
                            total_ms,
                            {
                                "op": "query",
                                "member": member.name,
                                "u": pairs[at],
                                "v": pairs[at + 1],
                                "trace_id": trace[0] if trace else None,
                            },
                        )
                if trace is not None:
                    traced.append((trace, connection, pairs[0], pairs[1], enqueued))
                runs = answered.get(connection)
                if runs is None:
                    answered[connection] = [(ids, run)]
                else:
                    runs.append((ids, run))
            kind = member.kind_code
            ratio = member.ratio_bound
            sent: dict[object, tuple] = {}
            for connection, runs in answered.items():
                sent[connection] = self._send_timed(
                    connection, self._encode_runs, runs, kind, ratio
                )
            # a traced query reports its connection's shared encode/write
            # spans: the one block it was answered in is what it waited for
            for trace, connection, u, v, enqueued in traced:
                self._record_trace(
                    "query",
                    member.name,
                    trace,
                    (
                        ("queue", enqueued, flush_start),
                        ("batch", flush_start, finished),
                        *sent[connection],
                    ),
                    u=u,
                    v=v,
                )

    def _answer_alone(self, member: _Member, pending: list) -> tuple[list, list]:
        """Answer a poisoned flush pair by pair: ``(good runs, answers)``.

        Each offender gets ``OP_ERROR`` now, in queue order; the good
        requests of a run stay together as a run of their own.
        """
        good: list[tuple] = []
        answers: list = []
        for connection, count, ids, pairs, enqueued, trace in pending:
            kept_ids: list[int] = []
            kept_pairs: list[int] = []
            for at in range(count):
                u, v = pairs[2 * at], pairs[2 * at + 1]
                try:
                    answers.append(member.index.query(u, v, raw=True))
                except (StoreError, ValueError) as error:
                    self.errors += 1
                    connection.send(protocol.encode_error(ids[at], str(error)))
                else:
                    kept_ids.append(ids[at])
                    kept_pairs += (u, v)
            if kept_ids:
                good.append(
                    (connection, len(kept_ids), kept_ids, kept_pairs, enqueued, trace)
                )
        return good, answers

    def _encode_runs(self, runs: list, kind: int, ratio: float | None) -> bytes:
        """One connection's RESULT frames for ``runs`` of ``(ids, answers)``.

        Exact answers the kernel gave as ``array('q')`` columns go through
        the native codec; anything else, or a value it refuses, through
        :func:`protocol.encode_result_block` — the same bytes either way.
        """
        codec = self._codec
        if codec is None or kind != protocol.KIND_EXACT:
            return protocol.encode_result_block(
                [pair for ids, answers in runs for pair in zip(ids, answers)], kind, ratio
            )
        blocks = []
        for ids, answers in runs:
            block = None
            if type(ids) is array and type(answers) is array:
                block = codec.encode_results(ids, answers)
            if block is None:
                block = protocol.encode_result_block(zip(ids, answers), kind, ratio)
            blocks.append(block)
        return blocks[0] if len(blocks) == 1 else b"".join(blocks)

    def _send_timed(self, connection, encode, *args) -> tuple:
        """Encode one response with ``encode(*args)`` and write it.

        Observes the encode and write stage histograms and returns their
        ``(stage, start, end)`` spans for :meth:`_record_trace`.
        """
        now = time.monotonic
        start = now()
        data = encode(*args)
        encoded = now()
        connection.send(data)
        written = now()
        self.stage_hist["encode"].observe((encoded - start) * 1000.0)
        self.stage_hist["write"].observe((written - encoded) * 1000.0)
        return ("encode", start, encoded), ("write", encoded, written)

    def _record_trace(self, op: str, member: str, trace: tuple, spans, **attrs) -> None:
        """Record one traced request: its decode span, then ``spans``.

        ``trace`` is ``(trace_id, arrived, decoded)``; ``spans`` are
        ``(stage, start, end)`` monotonic times in request order, the last
        ending when the response was written.
        """
        trace_id, arrived, decoded = trace
        record = Trace(
            trace_id,
            op,
            member,
            total_ms=(spans[-1][2] - arrived) * 1000.0,
            attrs=self._trace_attrs(**attrs),
        )
        record.add(Span.completed("decode", (decoded - arrived) * 1000.0))
        for stage, start, end in spans:
            record.add(Span.completed(stage, (end - start) * 1000.0))
        self.tracer.record(record)

    def _trace_attrs(self, **extra) -> dict:
        attrs = {"worker": os.getpid(), "slot": self.slot}
        if self.generation is not None:
            attrs["store_generation"] = self.generation.get("generation")
        attrs.update(extra)
        return attrs

    # -- MATRIX offload -------------------------------------------------------

    async def _run_matrix(self, member: _Member, connection, request_id: int, nodes) -> None:
        """One offloaded MATRIX request: executor compute, loop-side write."""
        try:
            flat = await asyncio.get_running_loop().run_in_executor(
                None, member.index.engine.matrix_into, nodes
            )
            self.matrix_requests += 1
            self.matrix_offloaded += 1
            connection.send(
                protocol.encode_result(
                    request_id, member.kind_code, flat, member.ratio_bound
                )
            )
        except (StoreError, ValueError) as error:
            self.errors += 1
            connection.send(protocol.encode_error(request_id, str(error)))
        finally:
            self.matrix_inflight -= 1

    # -- request dispatch ------------------------------------------------------

    def handle_request(self, connection, body: bytes) -> None:
        """Dispatch one decoded frame from ``connection``."""
        arrived = time.monotonic()
        if self._faults is not None:
            self._faults.fire("dispatch")
        op, request_id, name, payload, trace_id = protocol.decode_request(body)
        decoded = time.monotonic()
        self.stage_hist["decode"].observe((decoded - arrived) * 1000.0)
        try:
            if op == protocol.OP_QUERY:
                member = self.member(name)
                trace = (trace_id, arrived, decoded) if trace_id is not None else None
                self.enqueue(member, connection, 1, (request_id,), payload, trace)
                return
            if op == protocol.OP_BATCH:
                member = self.member(name)
                batch_start = time.monotonic()
                answers = member.index.batch(payload, raw=True)
                batch_end = time.monotonic()
                self.batch_requests += 1
                self.batch_request_pairs += len(payload)
                self.stage_hist["batch"].observe((batch_end - batch_start) * 1000.0)
                encode, write = self._send_timed(
                    connection,
                    protocol.encode_result,
                    request_id,
                    member.kind_code,
                    answers,
                    member.ratio_bound,
                )
                if self.tracer.slow_ms is not None:
                    self.tracer.maybe_slow(
                        (write[2] - arrived) * 1000.0,
                        {
                            "op": "batch",
                            "member": name,
                            "pairs": len(payload),
                            "trace_id": trace_id,
                        },
                    )
                if trace_id is not None:
                    self._record_trace(
                        "batch",
                        name,
                        (trace_id, arrived, decoded),
                        (("batch", batch_start, batch_end), encode, write),
                        pairs=len(payload),
                    )
                return
            if op == protocol.OP_MATRIX:
                member = self.member(name)
                size = member.index.n if payload is None else len(payload)
                if size > self.max_matrix:
                    raise ValueError(
                        f"matrix over {size} nodes exceeds the server's limit "
                        f"of {self.max_matrix}; request fewer nodes per message"
                    )
                if self.matrix_inflight >= self.max_matrix_inflight:
                    self.busy_rejections += 1
                    connection.send(
                        protocol.encode_busy(request_id, self._retry_hint_ms())
                    )
                    return
                self.matrix_inflight += 1
                asyncio.get_running_loop().create_task(
                    self._run_matrix(member, connection, request_id, payload)
                )
                return
            if op == protocol.OP_STATS:
                connection.send(
                    protocol.encode_json_response(
                        protocol.OP_STATS_RESULT,
                        request_id,
                        self.stats(name, detail=payload is True),
                    )
                )
                return
            if op == protocol.OP_TRACE:
                limit, include_slow = payload
                snapshot = self.tracer.snapshot(limit, include_slow)
                snapshot.update(self._trace_attrs())
                connection.send(
                    protocol.encode_json_response(
                        protocol.OP_TRACE_RESULT, request_id, snapshot
                    )
                )
                return
            assert op == protocol.OP_INFO
            connection.send(
                protocol.encode_json_response(
                    protocol.OP_INFO_RESULT, request_id, self.info()
                )
            )
        except (CatalogError, StoreError, KeyError, ValueError) as error:
            self.errors += 1
            message = error.args[0] if error.args else str(error)
            connection.send(protocol.encode_error(request_id, str(message)))

    def handle_run(self, connection, run: tuple, decode_ms: float) -> None:
        """Dispatch a run of plain QUERY frames the hot lane scanned.

        ``run`` is ``(name, ids, pairs)`` (see ``WireCodec``); a member
        that fails to open answers each request with ``OP_ERROR``, as
        :meth:`handle_request` does frame by frame.
        ``decode_ms`` is the scan's time per frame.
        """
        name, ids, pairs = run
        count = len(ids)
        try:
            name = name.decode("utf-8")
        except UnicodeDecodeError as error:
            raise protocol.ProtocolError(f"malformed request: {error}") from error
        self.stage_hist["decode"].observe_many(decode_ms, count)
        try:
            member = self.member(name)
        except (CatalogError, StoreError, KeyError, ValueError) as error:
            self.errors += count
            message = str(error.args[0] if error.args else error)
            for request_id in ids:
                connection.send(protocol.encode_error(request_id, message))
            return
        self.enqueue(member, connection, count, ids, pairs)

    # -- graceful drain (used by the supervisor's worker shutdown path) --------

    async def drain(self, timeout: float = 5.0) -> bool:
        """Wait for queued queries and in-flight matrices to finish.

        Called after the listener is closed: nothing new can arrive, so once
        the coalescer queue and the matrix executor are empty every accepted
        request has been answered.  Returns ``False`` on timeout.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while self.pending_total or self.matrix_inflight:
            if loop.time() >= deadline:
                return False
            await asyncio.sleep(0.005)
        return True

    def close_connections(self) -> None:
        """Close every open client connection (pending writes are flushed).

        Clients see a clean EOF and reconnect — to a sibling worker or to
        this worker's replacement (reconnect-on-EOF is a retryable event in
        both clients).
        """
        for connection in list(self._connections):
            connection.close_gracefully()


class _Connection(asyncio.Protocol):
    """One client connection: frame splitting and response writing."""

    __slots__ = ("_core", "_decoder", "_transport", "closed")

    def __init__(self, core: ServingCore) -> None:
        self._core = core
        self._decoder = protocol.FrameDecoder()
        self._transport: asyncio.Transport | None = None
        self.closed = False

    # -- asyncio.Protocol hooks ----------------------------------------------

    def connection_made(self, transport) -> None:
        if self._core._faults is not None:
            self._core._faults.fire("accept")
        self._transport = transport
        self._core.connections_total += 1
        self._core.connections_open += 1
        self._core._connections.add(self)

    def connection_lost(self, exc) -> None:
        self.closed = True
        self._core.connections_open -= 1
        self._core._connections.discard(self)

    def data_received(self, data: bytes) -> None:
        core = self._core
        codec = core._codec
        try:
            if codec is None:
                self._decoder.feed(data)
                for body in self._decoder.frames():
                    core.handle_request(self, body)
                return
            # the hot lane: runs of plain QUERY frames as int64 columns,
            # every other frame through the Python decoder, in stream order
            arrived = time.monotonic()
            items = self._decoder.scan(data, codec.scan_queries)
            frames = sum(1 if type(item) is bytes else len(item[1]) for item in items)
            decode_ms = (time.monotonic() - arrived) * 1000.0 / max(frames, 1)
            for item in items:
                if type(item) is bytes:
                    core.handle_request(self, item)
                else:
                    core.handle_run(self, item, decode_ms)
        except protocol.ProtocolError:
            # unparseable bytes: the stream cannot be resynchronised
            self.abort()

    # -- used by the server --------------------------------------------------

    def send(self, data: bytes) -> None:
        """Write a response unless the peer already went away."""
        if not self.closed and self._transport is not None:
            self._transport.write(data)

    def abort(self) -> None:
        if self._transport is not None:
            self._transport.close()
        self.closed = True

    def close_gracefully(self) -> None:
        """Close after flushing buffered responses (drain path)."""
        if self._transport is not None:
            self._transport.close()


class LabelServer(ServingCore):
    """A :class:`ServingCore` behind an asyncio TCP listener.

    Three ways to bind, one per deployment shape:

    * ``start(host, port)`` — a fresh private socket (the single-process
      default);
    * ``start(host, port, reuse_port=True)`` — a ``SO_REUSEPORT`` socket;
      every worker process binding the same address gets a kernel-balanced
      share of incoming connections;
    * ``start(sock=...)`` — serve an already-bound listening socket
      inherited from a supervisor (the pre-fork fallback where
      ``SO_REUSEPORT`` is unavailable).
    """

    def __init__(self, target: DistanceIndex | IndexCatalog, **kwargs) -> None:
        super().__init__(target, **kwargs)
        self._server: asyncio.AbstractServer | None = None

    async def start(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        reuse_port: bool = False,
        sock=None,
    ) -> tuple[str, int]:
        """Bind and start accepting; returns the actual ``(host, port)``."""
        loop = asyncio.get_running_loop()
        if sock is not None:
            self._server = await loop.create_server(lambda: _Connection(self), sock=sock)
        else:
            self._server = await loop.create_server(
                lambda: _Connection(self), host=host, port=port, reuse_port=reuse_port
            )
        return self._server.sockets[0].getsockname()[:2]

    async def serve_forever(self) -> None:
        """Run until :meth:`stop` (or task cancellation)."""
        if self._server is None:
            raise RuntimeError("call start() before serve_forever()")
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def stop(self) -> None:
        """Stop accepting and close the listening socket."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None


async def serve(
    target: DistanceIndex | IndexCatalog,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    ready: "asyncio.Event | None" = None,
    bound: "list | None" = None,
    **server_kwargs,
) -> LabelServer:
    """Start a :class:`LabelServer` and run it until cancelled.

    ``bound`` (a list) receives the actual ``(host, port)`` and ``ready`` is
    set once the socket is listening — the hooks the in-process tests and
    the thread-hosted test harness use to rendezvous with the server.
    Remaining keyword arguments go to the :class:`ServingCore` constructor.
    """
    server = LabelServer(target, **server_kwargs)
    address = await server.start(host, port)
    if bound is not None:
        bound.append(address)
    if ready is not None:
        ready.set()
    await server.serve_forever()
    return server
