"""The client for the :mod:`repro.serve` wire protocol.

One implementation, two ways to call it:

:class:`AsyncLabelClient`
    the client: asyncio streams with a background reader task; any number
    of requests may be outstanding concurrently (responses are matched by
    request id, so coalesced servers may answer out of order), and
    :meth:`AsyncLabelClient.pipeline` keeps a window of QUERY requests in
    flight so a single connection can saturate the server's
    micro-batching coalescer.

:class:`LabelClient`
    a blocking façade for scripts, REPLs and tests.  It runs one
    :class:`AsyncLabelClient` on a private event loop, so BUSY retry,
    reconnect and pipelining behave exactly as in the async client.
    ``timeout`` is one deadline per call.  A blocking call cannot run in a
    thread whose event loop is already running; use
    :class:`AsyncLabelClient` there.

Both return the same typed :class:`repro.api.QueryResult` values as the
in-process :class:`DistanceIndex` — the wire carries the result *kind* and
ratio bound, so exact, k-distance and approximate schemes round-trip with
their semantics intact.  Pass ``raw=True`` for the native values.

Writes: every request frame leaves through one path, a per-connection cork.
A request appends its frame to the connection's list; the first frame of
a loop tick schedules one ``loop.call_soon`` flush, which writes the whole
list with a single ``write``.  Any number of concurrent callers (and a
whole :meth:`AsyncLabelClient.pipeline` window) thus cost one socket send
per tick, as the server's answers do, and the bytes on the wire are the
same frames in request-id order.  A reconnect drops frames corked for the
dead connection (their requests already failed and are re-issued).

Backpressure: an overloaded server sheds QUERY/MATRIX requests with
``OP_BUSY`` instead of queueing them.  The client retries busy requests
transparently with exponential backoff and full jitter (so a fleet of
retrying clients does not resynchronise into thundering herds); the retry
budget is per-request (``busy_retries``) and exhausting it raises
:class:`ServerBusy`.  ``pipeline`` retries only the shed subset of its
window — answered requests are never re-sent.

Self-healing: against a supervised fleet, a dropped connection (worker
crash, rolling reload) is a *retryable* event, not an error.  Clients that
know their remote address reconnect with the same jittered backoff — the
kernel (or the supervisor's replacement worker) lands the new connection on
a live worker — and re-issue only the unanswered requests; queries are
read-only, so the re-send is always safe.  A dropped connection is replaced
once, however many callers were waiting on it.  The budget is
``reconnect_retries`` consecutive failures per call, and the lifetime
``reconnects`` counter makes chaos tests' healing visible.
"""

from __future__ import annotations

import asyncio
import itertools
import random
import socket
from operator import attrgetter

from repro import kernels
from repro.api.result import QueryResult
from repro.serve import protocol
from repro.serve.retry import backoff_delay as _backoff_delay


class ServerError(RuntimeError):
    """An :data:`repro.serve.protocol.OP_ERROR` response from the server."""


class ServerBusy(ServerError):
    """An :data:`repro.serve.protocol.OP_BUSY` response: the request was
    shed by server backpressure and may be retried after a delay."""

    def __init__(self, retry_after_ms: int = 1) -> None:
        super().__init__(f"server busy; retry in ~{retry_after_ms}ms")
        self.retry_after_ms = retry_after_ms


_BEYOND = QueryResult(None, False, False, None)


def wrap_values(kind: int, ratio_bound: float | None, values: list) -> list:
    """Typed :class:`QueryResult` objects from one decoded value block."""
    if kind == protocol.KIND_EXACT:
        return [QueryResult(value, True, True, 1.0) for value in values]
    if kind == protocol.KIND_BOUNDED:
        return [
            _BEYOND if value is None else QueryResult(value, True, True, 1.0)
            for value in values
        ]
    return [QueryResult(value, False, True, ratio_bound) for value in values]


def _unwrap(payload, raw: bool) -> list:
    kind, ratio_bound, values = payload
    return values if raw else wrap_values(kind, ratio_bound, values)


def _reshape(flat: list, size: int) -> list[list]:
    """Row-major matrix rows from a flat MATRIX value block."""
    return [flat[row * size : (row + 1) * size] for row in range(size)]


async def _settle(future) -> None:
    """Wait for ``future`` without raising; outcomes are collected later."""
    try:
        await future
    except Exception:
        pass


class AsyncLabelClient:
    """Asyncio client; responses are matched to requests by id."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        busy_retries: int = 8,
        busy_base_delay: float = 0.002,
        reconnect_retries: int = 8,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._decoder = protocol.FrameDecoder()
        #: the native tier's wire codec: plain exact RESULT frames resolve
        #: their futures from int64 columns (``None`` on the python tier)
        self._codec = kernels.backend().wire_codec()
        #: request frames posted this loop tick, written by one ``_uncork``
        self._corked: list[bytes] = []
        self._ids = itertools.count(1)
        self._waiting: dict[int, asyncio.Future] = {}
        self._broken: Exception | None = None
        #: remote address; set by :meth:`connect`.  Clients built from raw
        #: streams don't know it and keep the old fail-fast behaviour.
        self._remote: tuple[str, int] | None = None
        self._closed = False
        self.busy_retries = busy_retries
        self.busy_base_delay = busy_base_delay
        self.reconnect_retries = reconnect_retries
        #: lifetime count of BUSY responses this client retried
        self.busy_retried = 0
        #: lifetime count of connections re-established after a drop; it is
        #: also the current connection's generation (see ``_reconnect``)
        self.reconnects = 0
        self._reconnecting = asyncio.Lock()
        #: trace ids this client stamped on requests (``pipeline`` sampling
        #: and explicit ``trace_id=`` calls); random base so ids from many
        #: clients against one fleet don't collide
        self._trace_ids = itertools.count(random.getrandbits(48))
        self.traced_ids: list[int] = []
        self._reader_task = asyncio.get_running_loop().create_task(self._read_loop())

    def next_trace_id(self) -> int:
        """A fresh client-unique trace id (also remembered in ``traced_ids``)."""
        trace_id = next(self._trace_ids)
        self.traced_ids.append(trace_id)
        return trace_id

    @staticmethod
    async def _open(host: str, port: int):
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.get_extra_info("socket").setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
        except (OSError, AttributeError):  # pragma: no cover - platform quirk
            pass
        return reader, writer

    @classmethod
    async def connect(cls, host: str, port: int, **kwargs) -> "AsyncLabelClient":
        """Open a connection and start the response reader.

        Clients opened this way remember the address and transparently
        reconnect when the connection drops (worker crash, rolling reload).
        """
        reader, writer = await cls._open(host, port)
        client = cls(reader, writer, **kwargs)
        client._remote = (host, port)
        return client

    async def _reconnect(self, drops: int, generation: int) -> None:
        """Replace the dropped connection after drop number ``drops``.

        ``generation`` is the ``reconnects`` count the caller saw when it
        sent on the connection that died.  Concurrent callers queue on one
        lock: the first replaces the connection, the rest find the
        generation advanced and simply re-send on the new one.  Connection
        *refusals* are retried too (against a one-worker fleet there is a
        window where the replacement has not bound yet); the budget is the
        caller's, this only spends backoff time.
        """
        async with self._reconnecting:
            if self.reconnects != generation:
                return
            await self._hang_up()
            attempt = drops
            while True:
                await asyncio.sleep(_backoff_delay(attempt, 1, self.busy_base_delay))
                try:
                    self._reader, self._writer = await self._open(*self._remote)
                except OSError:
                    attempt += 1
                    if attempt - drops > self.reconnect_retries:
                        raise
                    continue
                break
            # in-flight futures were already failed by the dying read loop;
            # anything still registered or corked belongs to the dead
            # connection (a fresh cork list also orphans its pending flush)
            self._fail_waiting(ConnectionError("connection was replaced"))
            self._corked = []
            self._decoder = protocol.FrameDecoder()
            self._broken = None
            self.reconnects += 1
            self._reader_task = asyncio.get_running_loop().create_task(self._read_loop())

    async def _hang_up(self) -> None:
        """Stop the reader task and close the current connection."""
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - already dead
            pass

    async def close(self) -> None:
        """Cancel the reader task and close the connection.

        Frames still corked are dropped unsent.
        """
        self._closed = True
        self._corked = []
        await self._hang_up()

    async def __aenter__(self) -> "AsyncLabelClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- plumbing ------------------------------------------------------------

    async def _read_loop(self) -> None:
        codec = self._codec
        waiting = self._waiting
        try:
            while True:
                chunk = await self._reader.read(65536)
                if not chunk:
                    raise ConnectionError("server closed the connection")
                if codec is None:
                    self._decoder.feed(chunk)
                    items = self._decoder.frames()
                else:
                    items = self._decoder.scan(chunk, codec.scan_results)
                for item in items:
                    if type(item) is not bytes:
                        # a run of plain exact RESULT frames, as int64 columns
                        _, ids, values = item
                        for request_id, value in zip(ids, values):
                            future = waiting.pop(request_id, None)
                            if future is not None and not future.done():
                                future.set_result(
                                    (protocol.OP_RESULT, (protocol.KIND_EXACT, None, [value]))
                                )
                        continue
                    op, request_id, payload = protocol.decode_response(item)
                    future = waiting.pop(request_id, None)
                    if future is not None and not future.done():
                        if op == protocol.OP_BUSY:
                            future.set_exception(ServerBusy(payload))
                        elif op == protocol.OP_ERROR:
                            future.set_exception(ServerError(payload))
                        else:
                            future.set_result((op, payload))
        except asyncio.CancelledError:
            raise
        except Exception as error:  # propagate to every waiter, then stop
            self._fail_waiting(error)

    def _fail_waiting(self, error: Exception) -> None:
        """Fail every outstanding request: the connection is unusable."""
        self._broken = error
        for future in self._waiting.values():
            if not future.done():
                future.set_exception(error)
        self._waiting.clear()

    def _check_open(self) -> None:
        """Fail fast when the reader is gone: nothing would ever resolve a
        future registered after that point."""
        if self._reader_task.done():
            raise self._broken or ConnectionError("client connection is closed")

    def _post(self, frame: bytes) -> None:
        """Cork ``frame``: the first frame of a tick schedules the flush."""
        corked = self._corked
        if not corked:
            asyncio.get_running_loop().call_soon(self._uncork, corked)
        corked.append(frame)

    def _uncork(self, corked: list) -> None:
        """Write one tick's frames in one call (the only request write).

        A flush scheduled for a replaced connection's list does nothing.
        It never raises out of the loop callback: a closing or failing
        writer fails the outstanding requests instead.
        """
        if corked is not self._corked:
            return
        self._corked = []
        try:
            if self._writer.is_closing():
                raise ConnectionError("client connection is closed")
            self._writer.write(b"".join(corked))
        except Exception as error:
            self._fail_waiting(error)

    def _send(self, frame_for_id) -> asyncio.Future:
        """Register a fresh request id, post its frame, return the future."""
        self._check_open()
        request_id = next(self._ids)
        future = asyncio.get_running_loop().create_future()
        self._waiting[request_id] = future
        self._post(frame_for_id(request_id))
        return future

    async def _request(self, frame_for_id):
        """One request with BUSY retry: fresh id and frame per attempt.

        For address-aware clients (built via :meth:`connect`) a dropped
        connection is retried too — reconnect, fresh id, re-send.
        """
        attempt = 0
        drops = 0
        while True:
            generation = self.reconnects
            try:
                return await self._send(frame_for_id)
            except ServerBusy as busy:
                attempt += 1
                if attempt > self.busy_retries:
                    raise
                self.busy_retried += 1
                await asyncio.sleep(
                    _backoff_delay(attempt, busy.retry_after_ms, self.busy_base_delay)
                )
            except (ConnectionError, OSError):
                if self._remote is None or self._closed:
                    raise
                drops += 1
                if drops > self.reconnect_retries:
                    raise
                await self._reconnect(drops, generation)

    # -- requests ------------------------------------------------------------

    async def query(
        self, u: int, v: int, *, name: str = "", raw: bool = False,
        trace_id: int | None = None,
    ):
        """One distance query; a :class:`QueryResult` unless ``raw``.

        ``trace_id`` stamps the request with the additive trace field (see
        :meth:`trace`); old servers ignore it.
        """
        _, payload = await self._request(
            lambda request_id: protocol.encode_query(
                request_id, u, v, name, trace_id=trace_id
            )
        )
        return _unwrap(payload, raw)[0]

    async def batch(
        self, pairs, *, name: str = "", raw: bool = False,
        trace_id: int | None = None,
    ) -> list:
        """Answer many pairs with a single BATCH request."""
        pairs = list(pairs)
        _, payload = await self._request(
            lambda request_id: protocol.encode_batch(
                request_id, pairs, name, trace_id=trace_id
            )
        )
        return _unwrap(payload, raw)

    async def matrix(self, nodes=None, *, name: str = "", raw: bool = False) -> list[list]:
        """All pairwise answers over ``nodes`` (default: every node)."""
        if nodes is not None:
            nodes = list(nodes)
            size = len(nodes)
        else:
            size = (await self.info())["members"][name]["n"]
        _, payload = await self._request(
            lambda request_id: protocol.encode_matrix(request_id, nodes, name)
        )
        return _reshape(_unwrap(payload, raw), size)

    async def stats(self, name: str = "", *, detail: bool = False) -> dict:
        """Server statistics (plus one member's cache stats when named).

        ``detail=True`` asks for the latency/per-stage histogram snapshots
        that fleet merging needs; plain polls should leave it off.
        """
        _, payload = await self._request(
            lambda request_id: protocol.encode_stats(request_id, name, detail=detail)
        )
        return payload

    async def trace(self, *, limit: int = 32, slow: bool = True) -> dict:
        """The worker's recent-trace ring and slow-query log (OP_TRACE)."""
        _, payload = await self._request(
            lambda request_id: protocol.encode_trace_request(
                request_id, limit=limit, slow=slow
            )
        )
        return payload

    async def info(self) -> dict:
        """Member listing: ``{"members": {name: {spec, kind, n, open}}}``."""
        _, payload = await self._request(protocol.encode_info)
        return payload

    async def pipeline(
        self,
        pairs,
        *,
        name: str = "",
        raw: bool = False,
        window: int = 256,
        trace_every: int = 0,
    ) -> list:
        """Issue one QUERY per pair with up to ``window`` in flight.

        This is the client half of the server's micro-batching story, so it
        is deliberately allocation-light: one future per request (no task),
        and the window enforced by awaiting the oldest outstanding response.
        Frames go out through the same cork as every other request: those
        posted before each wait leave in one ``write``, and no other write
        path exists.  Answers come back in ``pairs`` order regardless of
        the server's completion order.
        Requests shed with BUSY are re-issued (only those) in later rounds
        with jittered backoff.

        ``trace_every=N`` stamps every Nth request of the first pass with a
        fresh trace id (collected in ``traced_ids``); re-issued requests
        are never traced.
        """
        pairs = list(pairs)
        if window < 1:
            raise ValueError("window must be at least 1")
        outcomes: list = [None] * len(pairs)
        todo = list(range(len(pairs)))
        attempt = 0
        drops = 0
        reconnectable = self._remote is not None
        while todo:
            sample, trace_every = trace_every, 0  # first pass only
            generation = self.reconnects
            try:
                futures = await self._pipeline_pass(
                    [pairs[i] for i in todo], name, window, trace_every=sample
                )
            except (ConnectionError, OSError) as error:
                if not reconnectable or self._closed:
                    raise
                drops += 1
                if drops > self.reconnect_retries:
                    raise error
                await self._reconnect(drops, generation)
                continue
            busy: list[int] = []
            dropped: list[int] = []
            drop_error = None
            failure = None
            for slot, future in zip(todo, futures):
                # retrieve every outcome before raising, so no failed future
                # is left with a never-retrieved exception
                error = future.exception()
                if error is None:
                    _, payload = future.result()
                    outcomes[slot] = payload
                elif isinstance(error, ServerBusy):
                    busy.append(slot)
                elif isinstance(error, (ConnectionError, OSError)) and (
                    reconnectable and not self._closed
                ):
                    # the connection died under this request (worker crash,
                    # rolling reload) — unanswered, so safe to re-issue
                    dropped.append(slot)
                    drop_error = drop_error or error
                elif failure is None:
                    failure = error
            if failure is not None:
                raise failure
            if dropped:
                drops += 1
                if drops > self.reconnect_retries:
                    raise drop_error
                await self._reconnect(drops, generation)
            else:
                drops = 0
            if busy:
                # the retry budget counts *no-progress* rounds: an
                # overloaded-but-live server answers a few requests per
                # round and the pipeline keeps converging, while a server
                # shedding everything exhausts the budget and raises
                attempt = attempt + 1 if len(busy) + len(dropped) == len(todo) else 0
                if attempt > self.busy_retries:
                    raise ServerBusy()
                self.busy_retried += len(busy)
                await asyncio.sleep(_backoff_delay(attempt, 1, self.busy_base_delay))
            todo = sorted(busy + dropped)
        return [_unwrap(payload, raw)[0] for payload in outcomes]

    async def _pipeline_pass(
        self, pairs: list, name: str, window: int, trace_every: int = 0
    ) -> list:
        """One windowed pass over ``pairs``; returns the settled futures."""
        self._check_open()
        loop = asyncio.get_running_loop()
        waiting = self._waiting
        ids = self._ids
        post = self._post
        create_future = loop.create_future
        futures: list[asyncio.Future] = []
        head = 0  # oldest future not yet awaited
        for index, (u, v) in enumerate(pairs):
            if self._reader_task.done():
                # the reader died mid-pass and already failed everything it
                # knew about; registering more futures would leave them
                # unresolved forever — fail them at birth instead
                future = create_future()
                future.set_exception(
                    self._broken or ConnectionError("client connection is closed")
                )
                futures.append(future)
                continue
            request_id = next(ids)
            trace_id = (
                self.next_trace_id()
                if trace_every and index % trace_every == 0
                else None
            )
            post(protocol.encode_query(request_id, u, v, name, trace_id=trace_id))
            future = create_future()
            waiting[request_id] = future
            futures.append(future)
            if index + 1 - head >= window:
                # drain half the window at once: awaiting one future at a
                # time would degrade to one tiny write per query in steady
                # state, defeating both ends' batching
                release = head + max(1, window // 2)
                while head < release:
                    await _settle(futures[head])
                    head += 1
        for future in futures[head:]:
            await _settle(future)
        return futures


def _refuse_running_loop() -> None:
    """Refuse a blocking call inside a running event loop, before any
    coroutine is made (``run_until_complete`` cannot nest)."""
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return
    raise RuntimeError(
        "LabelClient blocks and cannot run inside a running event loop; "
        "use AsyncLabelClient there"
    )


class LabelClient:
    """Blocking façade: one :class:`AsyncLabelClient` on a private event loop.

    Every call runs the async client's coroutine to completion under one
    deadline of ``timeout`` seconds (``None`` waits forever); a call that
    misses it raises :class:`TimeoutError`.  The keywords mean what they
    mean on :class:`AsyncLabelClient`.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float | None = 30.0,
        busy_retries: int = 8,
        busy_base_delay: float = 0.002,
        reconnect_retries: int = 8,
    ) -> None:
        self._timeout = timeout
        self._loop = asyncio.new_event_loop()
        try:
            self._core = self._call(
                AsyncLabelClient.connect,
                host,
                port,
                busy_retries=busy_retries,
                busy_base_delay=busy_base_delay,
                reconnect_retries=reconnect_retries,
            )
        except BaseException:
            self._loop.close()
            raise

    def _call(self, method, *args, **kwargs):
        _refuse_running_loop()
        try:
            return self._loop.run_until_complete(
                asyncio.wait_for(method(*args, **kwargs), self._timeout)
            )
        except asyncio.TimeoutError as missed:  # not the builtin before 3.11
            raise TimeoutError(f"no answer within {self._timeout}s") from missed

    #: lifetime counters of the underlying client (read-only)
    busy_retried = property(attrgetter("_core.busy_retried"))
    reconnects = property(attrgetter("_core.reconnects"))
    traced_ids = property(attrgetter("_core.traced_ids"))

    def __enter__(self) -> "LabelClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Close the connection, then the loop; idempotent."""
        if self._loop.is_closed():
            return
        try:
            self._call(self._core.close)
        finally:
            self._loop.close()

    def next_trace_id(self) -> int:
        """A fresh client-unique trace id (also remembered in ``traced_ids``)."""
        return self._core.next_trace_id()

    def query(
        self, u: int, v: int, *, name: str = "", raw: bool = False,
        trace_id: int | None = None,
    ):
        """One distance query; see :meth:`AsyncLabelClient.query`."""
        return self._call(self._core.query, u, v, name=name, raw=raw, trace_id=trace_id)

    def batch(
        self, pairs, *, name: str = "", raw: bool = False,
        trace_id: int | None = None,
    ) -> list:
        """Answer many pairs with a single BATCH request."""
        return self._call(self._core.batch, pairs, name=name, raw=raw, trace_id=trace_id)

    def matrix(self, nodes=None, *, name: str = "", raw: bool = False) -> list[list]:
        """All pairwise answers over ``nodes`` (default: every node)."""
        return self._call(self._core.matrix, nodes, name=name, raw=raw)

    def pipeline(
        self,
        pairs,
        *,
        name: str = "",
        raw: bool = False,
        window: int = 256,
        trace_every: int = 0,
    ) -> list:
        """One QUERY per pair, up to ``window`` in flight; see
        :meth:`AsyncLabelClient.pipeline`."""
        return self._call(
            self._core.pipeline,
            pairs, name=name, raw=raw, window=window, trace_every=trace_every,
        )

    def stats(self, name: str = "", *, detail: bool = False) -> dict:
        """Server statistics; see :meth:`AsyncLabelClient.stats`."""
        return self._call(self._core.stats, name, detail=detail)

    def trace(self, *, limit: int = 32, slow: bool = True) -> dict:
        """The worker's recent-trace ring and slow-query log (OP_TRACE)."""
        return self._call(self._core.trace, limit=limit, slow=slow)

    def info(self) -> dict:
        """Member listing: ``{"members": {name: {spec, kind, n, open}}}``."""
        return self._call(self._core.info)
