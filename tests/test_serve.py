"""Tests for :mod:`repro.serve`: protocol, server, clients, concurrency.

The server tests run a real :class:`LabelServer` on an ephemeral port —
inside ``asyncio.run`` for the async client, and on a background thread's
event loop for the blocking client — and check that every scheme family
round-trips over the wire with its typed-result semantics intact.
"""

from __future__ import annotations

import asyncio
import gc
import os
import socket
import threading
import time
import warnings

import pytest

from repro.api import DistanceIndex, IndexCatalog, QueryResult
from repro.generators.workloads import make_tree, random_pairs, zipf_pairs
from repro.serve import (
    AsyncLabelClient,
    LabelClient,
    LabelServer,
    ProtocolError,
    ServerError,
)
from repro.serve import protocol


# -- shared fixtures ----------------------------------------------------------


@pytest.fixture(scope="module")
def tree():
    return make_tree("random", 150, seed=7)


@pytest.fixture(scope="module")
def catalog_bytes(tree):
    catalog = IndexCatalog()
    catalog.add("exact", DistanceIndex.build(tree, "freedman"))
    catalog.add("bounded", DistanceIndex.build(tree, "k-distance:k=4"))
    catalog.add("approx", DistanceIndex.build(tree, "approximate:epsilon=0.25"))
    return catalog.to_bytes()


@pytest.fixture()
def catalog(catalog_bytes):
    # a fresh lazily-opened catalog per test (members closed until queried)
    return IndexCatalog.from_bytes(catalog_bytes)


# -- protocol unit tests ------------------------------------------------------


def _legacy_routed(frame: bytes, version: int = 4) -> bytes:
    """``frame`` as an old routed client sent it: the retired ``0x02``
    route-version suffix field appended as raw bytes, after any trace id."""
    decoder = protocol.FrameDecoder()
    decoder.feed(frame)
    (body,) = decoder.frames()
    return protocol.encode_frame(body + b"\x02" + protocol.encode_uvarint(version))


def test_request_frames_round_trip():
    cases = [
        (
            protocol.encode_query(7, 3, 42, "m"),
            (protocol.OP_QUERY, 7, "m", (3, 42), None),
        ),
        (
            protocol.encode_query(8, 3, 42, "m", trace_id=12345),
            (protocol.OP_QUERY, 8, "m", (3, 42), 12345),
        ),
        (
            _legacy_routed(protocol.encode_query(18, 3, 42, "m")),
            (protocol.OP_QUERY, 18, "m", (3, 42), None),
        ),
        (
            _legacy_routed(protocol.encode_query(19, 3, 42, "m", trace_id=9)),
            (protocol.OP_QUERY, 19, "m", (3, 42), 9),
        ),
        (
            protocol.encode_batch(9, [(1, 2), (3, 4)], ""),
            (protocol.OP_BATCH, 9, "", [(1, 2), (3, 4)], None),
        ),
        (
            protocol.encode_batch(10, [(1, 2)], "", trace_id=7),
            (protocol.OP_BATCH, 10, "", [(1, 2)], 7),
        ),
        (
            _legacy_routed(protocol.encode_batch(20, [(1, 2)], "")),
            (protocol.OP_BATCH, 20, "", [(1, 2)], None),
        ),
        (
            _legacy_routed(protocol.encode_batch(21, [(1, 2)], "", trace_id=7)),
            (protocol.OP_BATCH, 21, "", [(1, 2)], 7),
        ),
        (
            protocol.encode_matrix(11, [5, 6], "x"),
            (protocol.OP_MATRIX, 11, "x", [5, 6], None),
        ),
        (
            protocol.encode_matrix(12, None, "x"),
            (protocol.OP_MATRIX, 12, "x", None, None),
        ),
        (
            protocol.encode_matrix(13, [], "x"),
            (protocol.OP_MATRIX, 13, "x", [], None),
        ),
        (
            protocol.encode_stats(14, "y"),
            (protocol.OP_STATS, 14, "y", None, None),
        ),
        (
            protocol.encode_stats(16, "y", detail=True),
            (protocol.OP_STATS, 16, "y", True, None),
        ),
        (protocol.encode_info(15), (protocol.OP_INFO, 15, "", None, None)),
        (
            protocol.encode_trace_request(17, limit=16, slow=False),
            (protocol.OP_TRACE, 17, "", (16, False), None),
        ),
    ]
    decoder = protocol.FrameDecoder()
    for frame, _ in cases:
        decoder.feed(frame)
    bodies = decoder.frames()
    assert len(bodies) == len(cases)
    for body, (_, expected) in zip(bodies, cases):
        assert protocol.decode_request(body) == expected


@pytest.mark.parametrize(
    ("kind", "ratio", "values"),
    [
        (protocol.KIND_EXACT, None, [0, 1, 2, 10**9]),
        (protocol.KIND_BOUNDED, None, [None, 0, 4, None]),
        (protocol.KIND_APPROXIMATE, 1.25, [0.0, 17.09, 3.5]),
    ],
)
def test_result_values_round_trip(kind, ratio, values):
    frame = protocol.encode_result(21, kind, values, ratio)
    decoder = protocol.FrameDecoder()
    decoder.feed(frame)
    (body,) = decoder.frames()
    op, request_id, (seen_kind, seen_ratio, seen_values) = protocol.decode_response(body)
    assert (op, request_id, seen_kind) == (protocol.OP_RESULT, 21, kind)
    assert seen_ratio == ratio
    assert seen_values == values


def test_error_and_json_responses_round_trip():
    decoder = protocol.FrameDecoder()
    decoder.feed(protocol.encode_error(5, "boom"))
    decoder.feed(
        protocol.encode_json_response(protocol.OP_STATS_RESULT, 6, {"qps": 1.5})
    )
    bodies = decoder.frames()
    assert protocol.decode_response(bodies[0]) == (protocol.OP_ERROR, 5, "boom")
    assert protocol.decode_response(bodies[1]) == (
        protocol.OP_STATS_RESULT,
        6,
        {"qps": 1.5},
    )


def test_frame_decoder_handles_arbitrary_chunking():
    frames = b"".join(
        protocol.encode_query(request_id, request_id, request_id + 1, "abc")
        for request_id in range(40)
    )
    for chunk_size in (1, 2, 3, 7, 64):
        decoder = protocol.FrameDecoder()
        seen = []
        for pos in range(0, len(frames), chunk_size):
            decoder.feed(frames[pos : pos + chunk_size])
            seen.extend(decoder.frames())
        assert len(seen) == 40
        assert protocol.decode_request(seen[17])[1] == 17


def test_protocol_rejects_malformed_input():
    with pytest.raises(ProtocolError):
        protocol.decode_request(b"")
    with pytest.raises(ProtocolError):
        protocol.decode_request(bytes([0x7E, 1]))  # unknown opcode
    with pytest.raises(ProtocolError):
        protocol.decode_response(bytes([protocol.OP_RESULT]))  # truncated
    # a length field that overruns the frame: never a silently shorter field
    overrun = [protocol.encode_error(7, "boom happened")[1:-5]] + [
        protocol.encode_json_response(op, 8, {"qps": 1.5})[1:-3]
        for op in (
            protocol.OP_STATS_RESULT,
            protocol.OP_INFO_RESULT,
            protocol.OP_TRACE_RESULT,
        )
    ]
    for body in overrun:
        with pytest.raises(ProtocolError, match="truncated"):
            protocol.decode_response(body)
    with pytest.raises(ProtocolError, match="truncated"):  # member name overruns
        protocol.decode_request(protocol.encode_query(7, 3, 42, "member")[1:-4])
    decoder = protocol.FrameDecoder()
    decoder.feed(b"\xff" * 10)  # unterminated varint length prefix
    with pytest.raises(ProtocolError):
        decoder.frames()


# -- in-process dispatch ------------------------------------------------------


class _FakeTransport:
    """Collects what a :class:`_Connection` writes."""

    def __init__(self) -> None:
        self.data = bytearray()
        self.closed = False

    def write(self, data: bytes) -> None:
        self.data += data

    def close(self) -> None:
        self.closed = True


def _connected(core):
    """A server-side connection of ``core`` over a :class:`_FakeTransport`."""
    from repro.serve.server import _Connection

    transport = _FakeTransport()
    connection = _Connection(core)
    connection.connection_made(transport)
    return connection, transport


def _taken(transport) -> bytes:
    """The bytes written since the last call."""
    data = bytes(transport.data)
    transport.data.clear()
    return data


def _decoded(data: bytes) -> list[tuple]:
    decoder = protocol.FrameDecoder()
    decoder.feed(data)
    return [protocol.decode_response(body) for body in decoder.frames()]


@pytest.mark.parametrize("tier", ["native", "python"])
@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("op", ["query", "batch"])
def test_old_routed_client_frames_answer_like_their_twins(catalog_bytes, tier, traced, op):
    """A QUERY/BATCH from an old routed client carries the retired ``0x02``
    suffix field; it gets the bytes its unsuffixed twin gets, on both tiers
    (the native lane takes the twin, the Python decoder the suffixed frame),
    and a trace id in front of the field is still recorded."""
    from test_kernels import available_tiers, forced_tier

    from repro.serve.server import ServingCore

    if tier not in available_tiers():
        pytest.skip(f"{tier} kernel tier unavailable")
    trace_id = 99 if traced else None
    if op == "query":
        twin = protocol.encode_query(5, 3, 42, "exact")
        frame = protocol.encode_query(5, 3, 42, "exact", trace_id=trace_id)
    else:
        twin = protocol.encode_batch(5, [(3, 42), (0, 7)], "bounded")
        frame = protocol.encode_batch(5, [(3, 42), (0, 7)], "bounded", trace_id=trace_id)

    async def main():
        core = ServingCore(IndexCatalog.from_bytes(catalog_bytes))
        connection, transport = _connected(core)
        connection.data_received(twin)
        await asyncio.sleep(0)  # the coalescer's flush
        expected = _taken(transport)
        connection.data_received(_legacy_routed(frame))
        await asyncio.sleep(0)
        assert _taken(transport) == expected
        assert not transport.closed
        traces = core.tracer.snapshot(0, False)["traces"]
        assert [trace["trace_id"] for trace in traces] == ([trace_id] if traced else [])
        return expected

    with forced_tier(tier):
        expected = _run(main())
    ((op, request_id, _),) = _decoded(expected)
    assert (op, request_id) == (protocol.OP_RESULT, 5)


def test_truncated_member_is_request_scoped_error(tree, tmp_path):
    from repro.serve.server import ServingCore

    catalog = IndexCatalog()
    catalog.add("good", DistanceIndex.build(tree, "freedman"))
    catalog.add("bad", DistanceIndex.build(tree, "alstrup"))
    path = tmp_path / "torn.cat"
    catalog.save(path)
    # open while intact (TOC parses), then tear off the tail: the *last*
    # member's blob is now short and fails at first lazy access
    opened = IndexCatalog.load(path)
    with open(path, "r+b") as handle:
        handle.truncate(os.path.getsize(path) - 64)

    async def main():
        core = ServingCore(opened)
        connection, transport = _connected(core)
        connection.data_received(protocol.encode_query(1, 0, 1, "bad"))
        await asyncio.sleep(0)
        ((op, _, message),) = _decoded(_taken(transport))
        assert op == protocol.OP_ERROR
        assert "bad" in message and "failed to open" in message
        assert not transport.closed  # request-scoped, not connection-killing
        # the same connection keeps serving the intact member
        connection.data_received(protocol.encode_query(2, 0, 1, "good"))
        await asyncio.sleep(0)
        (answer,) = _decoded(_taken(transport))
        assert answer[0] == protocol.OP_RESULT
        assert core.errors == 1

    _run(main())


# -- async server round-trips -------------------------------------------------


def _run(coroutine):
    return asyncio.run(coroutine)


async def _with_server(target, handler, **server_kwargs):
    server = LabelServer(target, **server_kwargs)
    host, port = await server.start()
    try:
        client = await AsyncLabelClient.connect(host, port)
        try:
            return await handler(server, client, host, port)
        finally:
            await client.close()
    finally:
        await server.stop()


def test_all_scheme_kinds_round_trip_typed(catalog, tree):
    pairs = random_pairs(tree, 60, seed=3)
    local = {name: catalog.index(name) for name in catalog.names()}

    async def handler(server, client, host, port):
        for name, index in local.items():
            expected = index.batch(pairs)
            over_wire = await client.batch(pairs, name=name)
            assert over_wire == expected, name
            for result in over_wire:
                assert isinstance(result, QueryResult)
            u, v = pairs[0]
            assert await client.query(u, v, name=name) == index.query(u, v)
            raw = await client.batch(pairs[:5], name=name, raw=True)
            assert raw == index.batch(pairs[:5], raw=True)

    _run(_with_server(catalog, handler))


def test_matrix_and_info_and_stats(catalog, tree):
    async def handler(server, client, host, port):
        info = await client.info()
        assert sorted(info["members"]) == ["approx", "bounded", "exact"]
        assert info["members"]["exact"]["n"] == tree.n
        assert info["members"]["exact"]["kind"] == "exact"

        nodes = [0, 5, 9, 17]
        expected = catalog.index("exact").matrix(nodes, raw=True)
        assert await client.matrix(nodes, name="exact", raw=True) == expected

        stats = await client.stats("exact")
        assert stats["matrix_requests"] == 1
        assert stats["index"]["spec"] == "freedman"
        assert 0.0 <= stats["index"]["cache_hit_rate"] <= 1.0
        # a query decodes into the member's arena (native tier only)
        await client.query(0, 5, name="exact")
        cache = (await client.stats("exact"))["index"]["cache"]
        if cache["backend"] == "native":
            assert cache["arena"]["decodes"] >= 2 and cache["arena"]["bytes"] > 0
        else:
            assert cache["arena"] is None

    _run(_with_server(catalog, handler))


def test_single_index_server_uses_empty_name(tree):
    index = DistanceIndex.build(tree, "freedman")

    async def handler(server, client, host, port):
        info = await client.info()
        assert list(info["members"]) == [""]
        assert await client.query(3, 42) == index.query(3, 42)
        with pytest.raises(ServerError):
            await client.query(3, 42, name="other")

    _run(_with_server(index, handler))


def test_server_error_responses_keep_connection_usable(catalog, tree):
    async def handler(server, client, host, port):
        with pytest.raises(ServerError):
            await client.query(0, tree.n + 5, name="exact")  # node out of range
        with pytest.raises(ServerError):
            await client.query(0, 1, name="missing")  # unknown member
        # the connection survived both failures
        assert await client.query(0, 1, name="exact") == catalog.query("exact", 0, 1)
        assert (await client.stats())["errors"] == 2

    _run(_with_server(catalog, handler))


def test_pipeline_preserves_order_and_coalesces(catalog, tree):
    pairs = zipf_pairs(tree, 300, skew=1.1, seed=5)
    expected = catalog.index("exact").batch(pairs, raw=True)

    async def handler(server, client, host, port):
        answers = await client.pipeline(pairs, name="exact", raw=True, window=64)
        assert answers == expected
        stats = await client.stats()
        assert stats["queries"] == len(pairs)
        # micro-batching must have grouped many queries per flush
        assert stats["flushes"] < len(pairs)
        assert stats["mean_batch_size"] > 1.0

    _run(_with_server(catalog, handler))


def test_naive_mode_answers_one_request_per_batch(catalog, tree):
    pairs = random_pairs(tree, 50, seed=9)
    expected = catalog.index("exact").batch(pairs, raw=True)

    async def handler(server, client, host, port):
        answers = await client.pipeline(pairs, name="exact", raw=True, window=16)
        assert answers == expected
        stats = await client.stats()
        assert stats["flushes"] == len(pairs)  # every query flushed alone
        assert stats["mean_batch_size"] == 1.0
        assert stats["coalescing"] is False

    _run(_with_server(catalog, handler, coalesce=False))


def test_bad_query_does_not_poison_coalesced_batch(catalog, tree):
    """A valid and an out-of-range query coalesced into the same flush:
    only the offender gets OP_ERROR, the valid query is still answered."""

    async def handler(server, client, host, port):
        good = client._send(
            lambda rid: protocol.encode_query(rid, 0, 1, "exact")
        )
        bad = client._send(
            lambda rid: protocol.encode_query(rid, 0, tree.n + 7, "exact")
        )
        _, payload = await good
        kind, ratio, values = payload
        assert values == [catalog.query("exact", 0, 1, raw=True)]
        with pytest.raises(ServerError):
            await bad
        stats = await client.stats()
        assert stats["errors"] == 1
        assert stats["queries"] == 1

    _run(_with_server(catalog, handler))


def test_poisoned_flush_traces_and_slow_logs_the_good_query(catalog, tree):
    """A traced good query coalesced with an out-of-range one: the good
    query keeps its five query spans and its slow-log entry, and the
    poisoned flush counts once."""

    async def handler(server, client, host, port):
        good = client._send(
            lambda rid: protocol.encode_query(rid, 0, 1, "exact", trace_id=4242)
        )
        bad = client._send(
            lambda rid: protocol.encode_query(rid, 0, tree.n + 7, "exact")
        )
        _, payload = await good
        assert payload[2] == [catalog.query("exact", 0, 1, raw=True)]
        with pytest.raises(ServerError):
            await bad
        snapshot = await client.trace()
        (trace,) = [t for t in snapshot["traces"] if t["trace_id"] == 4242]
        assert trace["op"] == "query"
        assert [span["stage"] for span in trace["spans"]] == [
            "decode",
            "queue",
            "batch",
            "encode",
            "write",
        ]
        (slow,) = snapshot["slow"]
        assert (slow["op"], slow["trace_id"], slow["u"], slow["v"]) == (
            "query",
            4242,
            0,
            1,
        )
        stats = await client.stats(detail=True)
        assert stats["errors"] == 1
        assert stats["queries"] == 1
        assert stats["flushes"] == 1
        assert stats["latency_ms"]["samples"] == 1

    _run(_with_server(catalog, handler, slow_ms=0))


@pytest.mark.parametrize("callers", [1, 16])
def test_async_client_reconnects_after_connection_loss(catalog, tree, callers):
    async def handler(server, client, host, port):
        nodes = range(2, 2 + callers)
        expected = [catalog.query("exact", 0, v) for v in nodes]
        assert await client.query(0, 1, name="exact")  # connection works
        client._writer.close()  # simulate the peer going away
        await asyncio.sleep(0.05)  # let the reader task observe EOF
        # connect()-built clients know their address: the drop is retryable,
        # and concurrent callers share one replacement connection
        answers = await asyncio.gather(
            *(client.query(0, v, name="exact") for v in nodes)
        )
        assert answers == expected
        assert client.reconnects == 1
        assert await client.pipeline([(0, 1)], name="exact")
        assert client.reconnects == 1  # healed connection reused, no churn

    _run(_with_server(catalog, handler))


# -- the client's write cork ---------------------------------------------------


def _count_writes(client) -> list[bytes]:
    """Record every ``write`` on the client's current writer."""
    writes: list[bytes] = []
    write = client._writer.write

    def counting(data):
        writes.append(bytes(data))
        write(data)

    client._writer.write = counting
    return writes


def test_concurrent_queries_leave_in_one_write(catalog, tree):
    nodes = range(2, 18)
    expected = [catalog.query("exact", 0, v) for v in nodes]

    async def handler(server, client, host, port):
        writes = _count_writes(client)
        first = next(client._ids) + 1
        answers = await asyncio.gather(
            *(client.query(0, v, name="exact") for v in nodes)
        )
        assert answers == expected
        assert writes == [
            b"".join(
                protocol.encode_query(first + offset, 0, v, "exact")
                for offset, v in enumerate(nodes)
            )
        ]

    _run(_with_server(catalog, handler))


def test_pipeline_bytes_are_the_frames_in_order(catalog, tree):
    pairs = random_pairs(tree, 200, seed=21)

    async def handler(server, client, host, port):
        writes = _count_writes(client)
        first = next(client._ids) + 1
        answers = await client.pipeline(pairs, name="exact", raw=True, window=32)
        assert answers == catalog.index("exact").batch(pairs, raw=True)
        assert b"".join(writes) == b"".join(
            protocol.encode_query(first + offset, u, v, "exact")
            for offset, (u, v) in enumerate(pairs)
        )
        assert len(writes) <= len(pairs) // 8  # a write per wait, not per frame

    _run(_with_server(catalog, handler))


async def _answering_server():
    """A scripted server that answers every QUERY/BATCH with ``u + v`` per
    pair and records the raw bytes it reads; ``(server, received)``."""
    received = bytearray()

    async def serve(reader, writer):
        decoder = protocol.FrameDecoder()
        try:
            while data := await reader.read(65536):
                received.extend(data)
                decoder.feed(data)
                for body in decoder.frames():
                    op, request_id, _, payload, _ = protocol.decode_request(body)
                    pairs = [payload] if op == protocol.OP_QUERY else payload
                    writer.write(
                        protocol.encode_result(
                            request_id, protocol.KIND_EXACT, [u + v for u, v in pairs]
                        )
                    )
        finally:
            writer.close()

    return await asyncio.start_server(serve, "127.0.0.1", 0), received


def _mixed_tick(tier: str):
    """One loop tick of plain, named, traced, invalid and out-of-lane
    queries, a BATCH and a 1-pair pipeline against the answering server:
    ``(what each call gave, the one write, the bytes the server read,
    the first request id)``."""
    from test_kernels import forced_tier

    async def main():
        server, received = await _answering_server()
        host, port = server.sockets[0].getsockname()[:2]
        try:
            client = await AsyncLabelClient.connect(host, port)
            try:
                writes = _count_writes(client)
                first = next(client._ids) + 1
                calls = [
                    client.query(0, 1, raw=True),
                    client.query(0, 2, raw=True),
                    client.query(3, 4, name="named", raw=True),
                    client.query(5, 6, name="named", raw=True, trace_id=77),
                    client.query(-1, 2, raw=True),
                    client.batch([(1, 2), (3, 4)], name="named", raw=True),
                    client.query(7, 8, raw=True),
                    client.pipeline([(9, 10)], raw=True),
                    client.query(2**63, 1, raw=True),
                    client.query(11, 12, name="n" * 200, raw=True),
                ]
                outcomes = await asyncio.gather(*calls, return_exceptions=True)
                return outcomes, writes[0], bytes(received), first
            finally:
                await client.close()
        finally:
            server.close()
            await server.wait_closed()

    with forced_tier(tier):
        return _run(main())


def test_one_tick_of_mixed_requests_writes_the_reference_stream():
    """The native tier's columns and the python tier write the same bytes:
    the ``protocol.encode_*`` frames in call order, in one write; a
    negative ``u`` raises the reference ``ValueError`` on both."""
    from test_kernels import available_tiers

    runs = {tier: _mixed_tick(tier) for tier in available_tiers()}
    for tier, (outcomes, written, received, first) in runs.items():
        error = outcomes[4]
        assert isinstance(error, ValueError), tier
        with pytest.raises(ValueError) as reference:
            protocol.encode_query(first + 4, -1, 2)
        assert str(error) == str(reference.value)
        assert outcomes[:4] + outcomes[5:] == [
            1, 2, 7, 11, [3, 7], 15, [19], 2**63 + 1, 23,
        ], tier
        expected = b"".join(
            [
                protocol.encode_query(first, 0, 1),
                protocol.encode_query(first + 1, 0, 2),
                protocol.encode_query(first + 2, 3, 4, "named"),
                protocol.encode_query(first + 3, 5, 6, "named", trace_id=77),
                # first + 4 (u = -1) is taken but never written
                protocol.encode_batch(first + 5, [(1, 2), (3, 4)], "named"),
                protocol.encode_query(first + 6, 7, 8),
                protocol.encode_query(first + 7, 9, 10),
                protocol.encode_query(first + 8, 2**63, 1),
                protocol.encode_query(first + 9, 11, 12, "n" * 200),
            ]
        )
        assert written == expected, tier
        assert received == expected, tier
    assert len({run[2] for run in runs.values()}) == 1


def _quiet_loop() -> list[dict]:
    """Collect what the running loop would log as callback exceptions."""
    seen: list[dict] = []
    asyncio.get_running_loop().set_exception_handler(
        lambda loop, context: seen.append(context)
    )
    return seen


def test_connection_dropped_before_the_flush_heals(catalog, tree):
    """Frames are corked, the connection drops before their flush runs:
    the flush fails them instead of raising, the callers reconnect once and
    re-send, and a later query goes out on the new connection."""
    nodes = range(2, 18)
    expected = [catalog.query("exact", 0, v) for v in nodes]

    async def handler(server, client, host, port):
        seen = _quiet_loop()
        assert await client.query(0, 1, name="exact")
        dead = client._writer
        writes = _count_writes(client)
        callers = [
            asyncio.ensure_future(client.query(0, v, name="exact")) for v in nodes
        ]
        await asyncio.sleep(0)  # every caller corks; the flush queues behind us
        # corked frames, plus the native tier's plain QUERY columns
        assert len(client._corked) + len(client._cork_ids) == len(nodes)
        dead.close()
        assert await asyncio.gather(*callers) == expected
        assert writes == []  # nothing was written to the dropped connection
        assert client.reconnects == 1
        assert await client.query(0, 1, name="exact") == catalog.query("exact", 0, 1)
        assert client.reconnects == 1
        assert seen == []

    _run(_with_server(catalog, handler))


def test_close_with_frames_corked_is_quiet(catalog, tree):
    async def handler(server, client, host, port):
        seen = _quiet_loop()
        writes = _count_writes(client)
        for v in range(2, 6):
            client._send(
                lambda request_id, v=v: protocol.encode_query(request_id, 0, v, "exact")
            )
        await client.close()
        await asyncio.sleep(0.01)  # the orphaned flush has run by now
        assert writes == []  # corked frames are dropped, not sent
        assert seen == []

    _run(_with_server(catalog, handler))


def test_async_client_without_address_fails_fast(catalog, tree):
    async def handler(server, client, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        raw = AsyncLabelClient(reader, writer)  # no address -> no reconnect
        try:
            assert await raw.query(0, 1, name="exact")
            writer.close()
            await asyncio.sleep(0.05)
            with pytest.raises(ConnectionError):
                await raw.query(0, 2, name="exact")
            with pytest.raises(ConnectionError):
                await raw.pipeline([(0, 1)], name="exact")
        finally:
            await raw.close()

    _run(_with_server(catalog, handler))


def test_matrix_size_cap(catalog, tree):
    async def handler(server, client, host, port):
        small = await client.matrix([0, 1, 2], name="exact", raw=True)
        assert small == catalog.index("exact").matrix([0, 1, 2], raw=True)
        with pytest.raises(ServerError):  # explicit node list over the cap
            await client.matrix(list(range(5)), name="exact")
        with pytest.raises(ServerError):  # all-nodes matrix over the cap
            await client.matrix(name="exact")

    _run(_with_server(catalog, handler, max_matrix=4))


def test_stats_does_not_open_closed_members(catalog, tree):
    fresh = IndexCatalog.from_bytes(catalog.to_bytes())

    async def handler(server, client, host, port):
        stats = await client.stats("exact")
        assert stats["index"] == {"name": "exact", "open": False}
        assert not fresh.is_open("exact")  # the probe kept the member closed
        with pytest.raises(ServerError):
            await client.stats("missing")
        await client.query(0, 1, name="exact")
        stats = await client.stats("exact")
        assert stats["index"]["open"] is True
        assert stats["index"]["spec"] == "freedman"

    _run(_with_server(fresh, handler))


def test_max_batch_bounds_coalescer(catalog, tree):
    pairs = random_pairs(tree, 64, seed=13)

    async def handler(server, client, host, port):
        answers = await client.pipeline(pairs, name="exact", raw=True, window=64)
        assert answers == catalog.index("exact").batch(pairs, raw=True)
        stats = await client.stats()
        assert stats["flushes"] >= len(pairs) // 8

    _run(_with_server(catalog, handler, max_batch=8))


# -- concurrency: many tasks, lazy members, one shared engine -----------------


def test_concurrent_tasks_share_lazy_members_and_cache(catalog, tree):
    """The satellite concurrency check: several asyncio tasks hammer the
    server at once; catalog members open lazily under that concurrency and
    every member's parsed-label LRU serves all tasks."""
    task_count = 6
    per_task = 120
    names = ["exact", "bounded", "approx"]
    workloads = {
        index: zipf_pairs(tree, per_task, skew=1.0, seed=100 + index)
        for index in range(task_count)
    }
    expected = {
        index: catalog.index(names[index % 3]).batch(workloads[index], raw=True)
        for index in range(task_count)
    }
    # a fresh catalog so the server opens members lazily itself
    fresh = IndexCatalog.from_bytes(catalog.to_bytes())
    assert not any(fresh.is_open(name) for name in fresh.names())

    async def handler(server, client, host, port):
        clients = [client] + [
            await AsyncLabelClient.connect(host, port) for _ in range(2)
        ]
        try:
            async def one(index: int):
                target = clients[index % len(clients)]
                return await target.pipeline(
                    workloads[index], name=names[index % 3], raw=True, window=32
                )

            answers = await asyncio.gather(*(one(index) for index in range(task_count)))
            for index, got in enumerate(answers):
                assert got == expected[index], f"task {index} answers diverged"
            # every member was opened on demand by server-side traffic
            assert all(fresh.is_open(name) for name in names)
            for name in names:
                cache = fresh.index(name).engine.cache_info()
                assert cache["hits"] > 0, name
                assert 0.0 < cache["hit_rate"] <= 1.0
            stats = await client.stats()
            assert stats["queries"] == task_count * per_task
            assert stats["mean_batch_size"] > 1.0  # cross-task coalescing
            assert stats["connections_open"] == 3
        finally:
            for extra in clients[1:]:
                await extra.close()

    _run(_with_server(fresh, handler))


# -- blocking client against a thread-hosted server ---------------------------


@pytest.fixture()
def threaded_server(catalog):
    """A live server on a daemon thread; yields ``(host, port)``."""
    bound: list[tuple[str, int]] = []
    ready = threading.Event()
    holder: dict = {}

    def run() -> None:
        async def main() -> None:
            server = LabelServer(catalog)
            bound.append(await server.start())
            holder["loop"] = asyncio.get_running_loop()
            holder["stop"] = asyncio.Event()
            ready.set()
            serving = asyncio.ensure_future(server.serve_forever())
            await holder["stop"].wait()
            serving.cancel()
            await server.stop()

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(10), "server thread failed to start"
    yield bound[0]
    holder["loop"].call_soon_threadsafe(holder["stop"].set)
    thread.join(10)


def test_sync_client_round_trip(threaded_server, catalog, tree):
    host, port = threaded_server
    pairs = random_pairs(tree, 80, seed=17)
    with LabelClient(host, port) as client:
        assert sorted(client.info()["members"]) == ["approx", "bounded", "exact"]
        assert client.batch(pairs, name="exact") == catalog.index("exact").batch(pairs)
        assert client.query(1, 2, name="bounded") == catalog.query("bounded", 1, 2)
        piped = client.pipeline(pairs, name="exact", raw=True, window=24)
        assert piped == catalog.index("exact").batch(pairs, raw=True)
        nodes = [2, 3, 5]
        assert client.matrix(nodes, name="approx", raw=True) == catalog.index(
            "approx"
        ).matrix(nodes, raw=True)
        stats = client.stats("exact")
        assert stats["queries"] >= len(pairs)
        with pytest.raises(ServerError):
            client.query(0, 1, name="missing")


def test_sync_client_call_deadline():
    """``timeout`` bounds a whole call: a server that accepts and never
    answers costs one deadline, not a reconnect per socket timeout."""
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen()  # the kernel completes handshakes; nobody replies
        client = LabelClient(*listener.getsockname(), timeout=0.2)
        started = time.perf_counter()
        with pytest.raises(TimeoutError):
            client.info()
        assert time.perf_counter() - started < 1.0
        client.close()
        client.close()  # idempotent


@pytest.mark.parametrize("step", ["construct", "call"])
def test_sync_client_refuses_a_running_loop(threaded_server, step):
    host, port = threaded_server
    client = LabelClient(host, port) if step == "call" else None

    async def misuse():
        if client is None:
            LabelClient(host, port)
        else:
            client.info()

    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(RuntimeError, match="AsyncLabelClient"):
                asyncio.run(misuse())
            gc.collect()  # an orphaned coroutine warns when it is collected
        assert not [w for w in caught if "never awaited" in str(w.message)]
        if client is not None:
            assert client.info()["members"]  # still usable outside the loop
    finally:
        if client is not None:
            client.close()
