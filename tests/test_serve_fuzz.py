"""RSP/1 streams fuzzed through a live ``ServingCore``, native against python.

On the native tier the server splits its receive buffer with the C hot
lane (``WireCodec.scan_queries``): runs of plain QUERY frames become int64
columns, answered through the arena and written by ``encode_results``.
On the python tier every frame goes through ``FrameDecoder.frames`` and
``protocol.decode_request``, the reference.  Hypothesis streams mix plain,
traced and old routed QUERY frames with BATCH, STATS and INFO frames, ids and
nodes past ``int64``, non-canonical varints, invalid member names,
oversized and corrupt length prefixes, and truncated or bit-flipped
frames.  Each stream is cut into arbitrary chunks and fed to two fake
connections of one core per tier; both tiers must write the same
responses for each request id on each connection, abort the same
connections, and never let an exception out of ``data_received`` or the
coalescer's flush.

The client's scanner (``scan_results``) is held to
``protocol.decode_response`` and the C result encoder to
``protocol.encode_result_block`` the same way.  Skipped when the native
tier is unavailable.
"""

from __future__ import annotations

import asyncio
import gc
from array import array

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from test_kernels import available_tiers, forced_tier

from repro import kernels
from repro.api import DistanceIndex
from repro.generators.workloads import make_tree
from repro.serve import protocol
from repro.serve.server import ServingCore, _Connection


pytestmark = pytest.mark.skipif(
    "native" not in available_tiers(), reason="native kernel tier unavailable"
)

N = 40  #: nodes of the served tree; larger node ids are out of range

EXAMPLES = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="module", autouse=True)
def _collect_cycles():
    """Every example runs two event loops, whose closed loops, cores and
    caught exceptions are reference cycles: collect them when the module
    ends, so the tests after it (timing gates among them) do not meet a
    full collection of this module's garbage."""
    yield
    gc.collect()


@pytest.fixture(scope="module")
def index_bytes() -> bytes:
    return DistanceIndex.build(make_tree("random", N, seed=11), "freedman").to_bytes()


# -- frame strategies ----------------------------------------------------------

#: request ids and node ids: small, near the int64 edge, and past it
ints = st.one_of(
    st.integers(min_value=0, max_value=2 * N),
    st.integers(min_value=2**62, max_value=2**63 + 4),
    st.integers(min_value=0, max_value=2**70 - 1),
)
small_ids = st.integers(min_value=0, max_value=2**20)
nodes = st.integers(min_value=0, max_value=N + 2)
names = st.sampled_from(["", "", "", "other", "é"])


def _uvarint_padded(value: int, extra: int) -> bytes:
    """``value`` as a LEB128 varint with ``extra`` redundant zero groups."""
    out = bytearray(protocol.encode_uvarint(value))
    for _ in range(extra):
        out[-1] |= 0x80
        out.append(0)
    return bytes(out)


plain_queries = st.tuples(small_ids, nodes, nodes, names).map(
    lambda args: protocol.encode_query(*args)
)
traced_queries = st.tuples(small_ids, nodes, nodes, small_ids).map(
    lambda args: protocol.encode_query(args[0], args[1], args[2], trace_id=args[3])
)
#: an old routed client's QUERY: the retired ``0x02 uvarint`` suffix field
#: as raw bytes, alone or after a trace id; servers ignore it like any
#: unknown tag
routed_queries = st.tuples(
    small_ids, nodes, nodes, st.one_of(st.none(), small_ids), small_ids
).map(
    lambda args: protocol.encode_frame(
        protocol.encode_query(args[0], args[1], args[2], trace_id=args[3])[1:]
        + b"\x02"
        + protocol.encode_uvarint(args[4])
    )
)
#: ids and nodes anywhere up to the decoder's 70-bit limit
wide_queries = st.tuples(ints, ints, ints).map(
    lambda args: protocol.encode_query(*args)
)
#: a plain query whose varints carry redundant zero groups (up to 10 bytes)
padded_queries = st.tuples(small_ids, nodes, nodes, st.integers(0, 7)).map(
    lambda args: protocol.encode_frame(
        bytes([protocol.OP_QUERY])
        + _uvarint_padded(args[0], args[3])
        + b"\x00"
        + _uvarint_padded(args[1], args[3])
        + _uvarint_padded(args[2], 7 - args[3])
    )
)
#: a name field that is not UTF-8
bad_name_queries = st.tuples(small_ids, nodes, nodes).map(
    lambda args: protocol.encode_frame(
        bytes([protocol.OP_QUERY])
        + protocol.encode_uvarint(args[0])
        + b"\x01\xff"
        + protocol.encode_uvarint(args[1])
        + protocol.encode_uvarint(args[2])
    )
)
batches = st.tuples(
    small_ids, st.lists(st.tuples(nodes, nodes), min_size=0, max_size=4)
).map(lambda args: protocol.encode_batch(*args))
stats = st.tuples(small_ids, st.booleans()).map(
    lambda args: protocol.encode_stats(args[0], detail=args[1])
)
infos = small_ids.map(protocol.encode_info)
#: a QUERY with trailing bytes after ``v`` that are no known suffix
trailing = st.tuples(small_ids, nodes, nodes, st.binary(min_size=1, max_size=3)).map(
    lambda args: protocol.encode_frame(
        protocol.encode_query(args[0], args[1], args[2])[1:] + args[3]
    )
)
oversized = st.integers(
    min_value=protocol.MAX_FRAME_BYTES + 1, max_value=2**64
).map(lambda length: protocol.encode_uvarint(length) + b"\x01\x01")
corrupt_prefix = st.integers(min_value=10, max_value=12).map(lambda k: b"\x80" * k + b"\x01")
garbage = st.binary(min_size=1, max_size=12).map(protocol.encode_frame)

good_frames = st.one_of(
    plain_queries,
    plain_queries,
    plain_queries,
    traced_queries,
    routed_queries,
    wide_queries,
    padded_queries,
    batches,
    stats,
    infos,
    trailing,
)
bad_frames = st.one_of(bad_name_queries, oversized, corrupt_prefix, garbage)


def _flip(frame: bytes, bit: int) -> bytes:
    out = bytearray(frame)
    out[(bit // 8) % len(out)] ^= 1 << (bit % 8)
    return bytes(out)


#: a frame, then maybe one bit of it flipped
mutated_frames = good_frames.flatmap(
    lambda frame: st.integers(min_value=0, max_value=8 * len(frame) - 1).map(
        lambda bit: _flip(frame, bit)
    )
)

frames = st.one_of(good_frames, good_frames, good_frames, mutated_frames, bad_frames)


def _chunked(data: bytes) -> st.SearchStrategy:
    """``data`` cut at arbitrary points."""
    return st.lists(
        st.integers(min_value=0, max_value=len(data)), max_size=6
    ).map(lambda cuts: _cut(data, sorted(cuts)))


def _cut(data: bytes, cuts: list[int]) -> list[bytes]:
    bounds = [0, *cuts, len(data)]
    return [data[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]


#: a byte stream of frames (the last maybe truncated), in chunks
streams = st.lists(frames, min_size=1, max_size=24).flatmap(
    lambda parts: st.integers(min_value=0, max_value=len(parts[-1])).flatmap(
        lambda keep: _chunked(b"".join(parts[:-1]) + parts[-1][:keep])
    )
)

configs = st.fixed_dictionaries(
    {
        "coalesce": st.booleans(),
        "max_batch": st.integers(min_value=1, max_value=12),
        "max_pending": st.integers(min_value=1, max_value=40),
    }
)


# -- the differential ------------------------------------------------------------


class _FakeTransport:
    """Records writes and whether the connection was closed."""

    def __init__(self) -> None:
        self.data = bytearray()
        self.closed = False

    def write(self, data: bytes) -> None:
        assert not self.closed, "write after close"
        self.data += data

    def close(self) -> None:
        self.closed = True


def _responses(data: bytes) -> list:
    """Decoded responses, less what differs between tiers and runs: STATS
    and TRACE payloads (timings, the tier) and the tier in INFO's member
    rows.  Garbage frames can decode as a TRACE request."""
    decoder = protocol.FrameDecoder()
    decoder.feed(data)
    out = []
    for body in decoder.frames():
        op, request_id, payload = protocol.decode_response(body)
        if op in (protocol.OP_STATS_RESULT, protocol.OP_TRACE_RESULT):
            payload = None
        elif op == protocol.OP_INFO_RESULT:
            for row in payload["members"].values():
                row.pop("kernel")
        out.append((op, request_id, payload))
    assert not decoder._buffer, "a response frame was written in part"
    return out


def _by_request(data: bytes) -> dict:
    """Each request id's responses, in a canonical order: a MATRIX request
    (garbage and flipped bits make them too) is answered from the executor,
    so its response may land anywhere among the others."""
    out: dict = {}
    for op, request_id, payload in _responses(data):
        out.setdefault(request_id, []).append(repr((op, payload)))
    return {request_id: sorted(rows) for request_id, rows in out.items()}


def _serve(tier: str, data: bytes, streams_: list[list[bytes]], config: dict):
    """Feed each stream's chunks, round robin, to its own connection."""
    errors: list = []

    async def main():
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(lambda _, context: errors.append(context))
        # room for every MATRIX at once: shedding one would depend on when
        # the executor finished the last
        core = ServingCore(DistanceIndex.from_bytes(data), max_matrix_inflight=64, **config)
        assert (core._codec is None) == (tier == "python")
        transports = [_FakeTransport() for _ in streams_]
        connections = [_Connection(core) for _ in streams_]
        for connection, transport in zip(connections, transports):
            connection.connection_made(transport)
        for step in range(max(len(chunks) for chunks in streams_)):
            for connection, chunks in zip(connections, streams_):
                if step < len(chunks) and not connection.closed:
                    connection.data_received(chunks[step])
            await asyncio.sleep(0)  # the coalescer's flush runs here
        assert await core.drain()  # the flushes, then any MATRIX on the executor
        counters = (core.queries, core.flushes, core.coalesced, core.errors,
                    core.busy_rejections)
        return [(t.closed, _by_request(t.data)) for t in transports], counters

    with forced_tier(tier):
        assert kernels.backend_name() == tier
        outcome = asyncio.run(main())
    assert errors == []
    return outcome


@EXAMPLES
@given(first=streams, second=streams, config=configs)
def test_native_lane_serves_like_the_python_decoder(index_bytes, first, second, config):
    native = _serve("native", index_bytes, [first, second], config)
    python = _serve("python", index_bytes, [first, second], config)
    assert native == python


# -- the codec entry points against the reference --------------------------------


def _native_codec():
    with forced_tier("native"):
        return kernels.backend().wire_codec()


values = st.integers(min_value=0, max_value=2**63 - 1)
result_frames = st.one_of(
    st.tuples(small_ids, values).map(
        lambda args: protocol.encode_result(args[0], protocol.KIND_EXACT, [args[1]])
    ),
    st.tuples(st.integers(min_value=0, max_value=2**70 - 1), st.integers(0, 2**70)).map(
        lambda args: protocol.encode_result(args[0], protocol.KIND_EXACT, [args[1]])
    ),
    st.tuples(small_ids, st.lists(values, max_size=3)).map(
        lambda args: protocol.encode_result(args[0], protocol.KIND_EXACT, args[1])
    ),
    st.tuples(small_ids, st.one_of(st.none(), values)).map(
        lambda args: protocol.encode_result(args[0], protocol.KIND_BOUNDED, [args[1]])
    ),
    st.tuples(small_ids, st.text(max_size=8)).map(lambda args: protocol.encode_error(*args)),
    st.tuples(small_ids, st.integers(1, 50)).map(lambda args: protocol.encode_busy(*args)),
    st.binary(min_size=1, max_size=12).map(protocol.encode_frame),
)
result_streams = st.lists(
    st.one_of(result_frames, result_frames.flatmap(
        lambda frame: st.integers(0, 8 * len(frame) - 1).map(lambda bit: _flip(frame, bit))
    )),
    min_size=1,
    max_size=16,
).map(b"".join).flatmap(_chunked)


def _split(chunks: list[bytes], scanner) -> tuple[list, bool]:
    """Every item either splitter returns, flattened to one row per frame,
    and whether it raised."""
    decoder = protocol.FrameDecoder()
    rows: list = []
    try:
        for chunk in chunks:
            if scanner is None:
                decoder.feed(chunk)
                rows += decoder.frames()
            else:
                for item in decoder.scan(chunk, scanner):
                    if type(item) is bytes:
                        rows.append(item)
                    else:
                        name, ids, columns = item
                        width = len(columns) // len(ids)
                        for at, request_id in enumerate(ids):
                            rows.append(
                                (name, request_id, tuple(columns[width * at : width * (at + 1)]))
                            )
    except protocol.ProtocolError:
        return rows, True
    return rows, False


def _decoded_response(row):
    if type(row) is not bytes:
        _, request_id, (value,) = row
        return protocol.OP_RESULT, request_id, (protocol.KIND_EXACT, None, [value])
    try:
        return protocol.decode_response(row)
    except protocol.ProtocolError:
        return "error"


@EXAMPLES
@given(chunks=result_streams)
def test_scan_results_matches_decode_response(chunks):
    codec = _native_codec()
    scanned, scan_raised = _split(chunks, codec.scan_results)
    reference, raised = _split(chunks, None)
    assert scan_raised == raised
    assert [_decoded_response(row) for row in scanned] == [
        _decoded_response(row) for row in reference
    ]


def _decoded_request(row):
    """A request row as ``decode_request`` gives it, or ``"error"``; a run's
    name is decoded where the server dispatches it."""
    try:
        if type(row) is not bytes:
            name, request_id, (u, v) = row
            return protocol.OP_QUERY, request_id, name.decode("utf-8"), (u, v), None
        return protocol.decode_request(row)
    except (protocol.ProtocolError, UnicodeDecodeError):
        return "error"


@EXAMPLES
@given(chunks=streams)
def test_scan_queries_matches_decode_request(chunks):
    codec = _native_codec()
    scanned, scan_raised = _split(chunks, codec.scan_queries)
    reference, raised = _split(chunks, None)
    assert scan_raised == raised
    assert [_decoded_request(row) for row in scanned] == [
        _decoded_request(row) for row in reference
    ]


@EXAMPLES
@given(
    answered=st.lists(
        st.tuples(st.integers(0, 2**63 - 1), st.integers(0, 2**63 - 1)), max_size=40
    )
)
def test_encode_results_matches_encode_result_block(answered):
    codec = _native_codec()
    ids = array("q", [request_id for request_id, _ in answered])
    values = array("q", [value for _, value in answered])
    assert codec.encode_results(ids, values) == protocol.encode_result_block(
        answered, protocol.KIND_EXACT
    )


def test_encode_results_declines_negative_values_and_checks_lengths():
    codec = _native_codec()
    assert codec.encode_results(array("q", [1, 2]), array("q", [5, -1])) is None
    assert codec.encode_results(array("q", [-1]), array("q", [5])) is None
    with pytest.raises(ValueError):
        codec.encode_results(array("q", [1, 2]), array("q", [5]))
    many = array("q", range(5000))  # past the codec's initial scratch
    assert codec.encode_results(many, many) == protocol.encode_result_block(
        zip(many, many), protocol.KIND_EXACT
    )
