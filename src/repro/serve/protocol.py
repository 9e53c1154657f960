"""The RSP/1 wire protocol: varint-framed label-distance messages.

See the package docstring of :mod:`repro.serve` for the full frame and
message grammar.  This module is the single source of truth for opcodes and
the byte-level encoders/decoders shared by :mod:`repro.serve.server` and
:mod:`repro.serve.client`; everything is built on the same LEB128 varints
(:mod:`repro.encoding.varint`) that frame the ``LabelStore`` and
``IndexCatalog`` file formats.

Requests and responses are plain tuples/dataclass-free values so both ends
stay allocation-light on the hot path: the server decodes a request body
into ``(op, request_id, name, payload, trace_id)`` and the
client decodes a response body into ``(op, request_id, payload)``.

This module is also the reference for the native tier's hot lane
(:class:`repro.kernels.native.WireCodec`), which takes *plain* frames as
``int64`` columns without a Python object per frame: a plain QUERY has no
suffix field and nothing after ``v``; a plain RESULT is exact-kind with
one value and nothing after it; every varint of either fits in 9 bytes.
``FrameDecoder.scan`` splits with it, the C RESULT encoder writes the
bytes :func:`encode_result_block` writes, and the C QUERY encoder the
bytes :func:`encode_query` writes.
"""

from __future__ import annotations

import json
import struct

from repro.encoding.varint import _ONE_BYTE, decode_uvarint, encode_uvarint

#: protocol revision carried nowhere on the wire (frames are self-framing);
#: bumped only when the message grammar changes incompatibly
PROTOCOL_VERSION = 1

#: additive capabilities inside RSP/1, advertised in the INFO payload so a
#: client can feature-detect without a version bump: existing message
#: encodings never change, new response opcodes only ever ride on them.
#: ``generation`` means INFO carries the served store's generation (content
#: hash + path) and STATS its ``store_generation`` — the fields rolling
#: reloads flip, so clients can observe a re-encoded store going live.
#: ``tracing`` means QUERY/BATCH accept an optional trailing trace-id field
#: (flag byte ``0x01`` + uvarint) and the server answers :data:`OP_TRACE`
#: with its recent-trace ring and slow-query log; servers without the
#: feature ignore the trailing bytes and serve the query unchanged.
PROTOCOL_FEATURES = ("busy", "generation", "tracing")

#: hard ceiling on one frame's body, server- and client-side (a matrix
#: response over a few thousand nodes fits comfortably; anything larger is
#: a protocol error, not a workload)
MAX_FRAME_BYTES = 64 * 1024 * 1024

# -- opcodes -----------------------------------------------------------------

OP_QUERY = 0x01  #: one (u, v) distance query
OP_BATCH = 0x02  #: many (u, v) queries answered as one unit
OP_MATRIX = 0x03  #: all-pairs answers over a node subset
OP_STATS = 0x04  #: serving statistics (qps, latency percentiles, cache)
OP_INFO = 0x05  #: member listing: name -> {spec, kind, n}
OP_TRACE = 0x06  #: recent request traces + slow-query log (``tracing`` feature)

OP_RESULT = 0x81  #: answers to QUERY / BATCH / MATRIX
OP_STATS_RESULT = 0x83  #: JSON statistics blob
OP_INFO_RESULT = 0x84  #: JSON member listing
OP_TRACE_RESULT = 0x85  #: JSON trace ring / slow-query log
# retired, never to be reused: response opcode 0xFD and request suffix tag
# 0x02 (the MOVED redirect and route-version field of the withdrawn member
# routing; a stray 0x02 suffix is ignored like any unknown tag)
OP_BUSY = 0xFE  #: backpressure: the request was shed, retry after a delay
OP_ERROR = 0xFF  #: request-scoped failure (connection stays usable)

_OP_QUERY_BYTE = bytes([OP_QUERY])

REQUEST_OPS = frozenset({OP_QUERY, OP_BATCH, OP_MATRIX, OP_STATS, OP_INFO, OP_TRACE})
RESPONSE_OPS = frozenset(
    {
        OP_RESULT,
        OP_STATS_RESULT,
        OP_INFO_RESULT,
        OP_TRACE_RESULT,
        OP_BUSY,
        OP_ERROR,
    }
)

# -- result kinds ------------------------------------------------------------

KIND_EXACT = 0  #: values are exact distances (uvarint)
KIND_BOUNDED = 1  #: values are distance-or-beyond (flag byte + uvarint)
KIND_APPROXIMATE = 2  #: values are (1+eps)-approximations (IEEE double)

KIND_CODES = {"exact": KIND_EXACT, "bounded": KIND_BOUNDED, "approximate": KIND_APPROXIMATE}
KIND_NAMES = {code: name for name, code in KIND_CODES.items()}

_DOUBLE = struct.Struct(">d")


class ProtocolError(ValueError):
    """Raised when a frame or message is malformed.

    A ``ProtocolError`` is a *connection-level* failure (unparseable bytes);
    application failures (unknown member, node out of range) travel as
    :data:`OP_ERROR` responses instead and leave the connection usable.
    """


# -- framing -----------------------------------------------------------------


def encode_frame(body: bytes) -> bytes:
    """One wire frame: ``uvarint(len(body)) + body``."""
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame body of {len(body)} bytes exceeds the limit")
    return encode_uvarint(len(body)) + body


class FrameDecoder:
    """Incremental frame splitter for a byte stream.

    Feed arbitrary chunks with :meth:`feed`; iterate complete frame bodies
    with :meth:`frames`.  Partial frames stay buffered between feeds, so the
    decoder works equally under ``data_received`` callbacks and blocking
    ``recv`` loops.
    """

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> None:
        """Append a received chunk."""
        self._buffer += data

    def frames(self) -> list[bytes]:
        """Every complete frame body currently buffered, oldest first."""
        buffer = self._buffer
        out: list[bytes] = []
        pos = 0
        total = len(buffer)
        while pos < total:
            # a frame's length prefix may itself be split across chunks
            try:
                length, body_start = decode_uvarint(buffer, pos)
            except ValueError:
                if total - pos >= 10:  # a uvarint never needs 10 bytes: corrupt
                    raise ProtocolError("corrupt frame length prefix") from None
                break
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(f"frame of {length} bytes exceeds the limit")
            if body_start + length > total:
                break
            out.append(bytes(buffer[body_start : body_start + length]))
            pos = body_start + length
        if pos:
            del buffer[:pos]
        return out

    def scan(self, data: bytes, scanner) -> list:
        """Feed ``data`` and split every complete frame with ``scanner``.

        ``scanner`` is a native hot lane's ``scan_queries`` or
        ``scan_results`` (:class:`repro.kernels.native.WireCodec`): runs of
        *plain* frames come back as ``(name, ids, values)`` column items,
        every other frame as its body.  It raises :class:`ProtocolError`
        on exactly the streams :meth:`frames` raises on, before any item of
        this feed is returned, so the two splits are interchangeable.
        """
        buffer = self._buffer
        if buffer:
            buffer += data
            data = buffer
        items, consumed, corrupt = scanner(data)
        if corrupt:
            if data is not buffer:
                buffer += data
            self.frames()  # raises the reference ProtocolError
            raise ProtocolError("corrupt frame length prefix")
        if data is buffer:
            del buffer[:consumed]
        elif consumed < len(data):
            buffer += memoryview(data)[consumed:]
        return items


# -- request encoding --------------------------------------------------------


def _encode_name(name: str) -> bytes:
    encoded = name.encode("utf-8")
    return encode_uvarint(len(encoded)) + encoded


#: tags of the additive tagged suffix fields a QUERY/BATCH payload may carry
SUFFIX_TRACE = 0x01


def _request_suffix(trace_id: int | None) -> bytes:
    """The additive tagged suffix fields: ``tag byte + uvarint`` each.

    Appended after a QUERY/BATCH payload in ascending tag order; the one
    field today is :data:`SUFFIX_TRACE`, the trace id (the ``tracing``
    feature).  Servers that predate a field ignore trailing request bytes,
    so a tagging client interoperates with an old server unchanged; a
    request without a field is byte-identical to the original encoding.
    """
    if trace_id is None:
        return b""
    return bytes([SUFFIX_TRACE]) + encode_uvarint(trace_id)


def encode_query(
    request_id: int,
    u: int,
    v: int,
    name: str = "",
    trace_id: int | None = None,
) -> bytes:
    """A framed :data:`OP_QUERY` request (optionally trace-tagged).

    The reference for every QUERY frame, and the python tier's hot request
    encoder, so the body is one join and its length prefix comes from the
    one-byte table whenever the body is short (it always is, barring a long
    member name).  On the native tier the client writes plain QUERYs from
    columns in C (``WireCodec.encode_queries``), byte for byte as here.
    """
    uvarint = encode_uvarint
    if name:
        encoded = name.encode("utf-8")
        name_field = uvarint(len(encoded)) + encoded
    else:
        name_field = b"\x00"
    parts = [_OP_QUERY_BYTE, uvarint(request_id), name_field, uvarint(u), uvarint(v)]
    if trace_id is not None:
        parts.append(_request_suffix(trace_id))
    body = b"".join(parts)
    if len(body) < 128:
        return _ONE_BYTE[len(body)] + body
    return encode_frame(body)


def encode_batch(
    request_id: int,
    pairs,
    name: str = "",
    trace_id: int | None = None,
) -> bytes:
    """A framed :data:`OP_BATCH` request (optionally trace-tagged)."""
    parts = [bytes([OP_BATCH]), encode_uvarint(request_id), _encode_name(name)]
    pairs = list(pairs)
    parts.append(encode_uvarint(len(pairs)))
    for u, v in pairs:
        parts.append(encode_uvarint(u))
        parts.append(encode_uvarint(v))
    parts.append(_request_suffix(trace_id))
    return encode_frame(b"".join(parts))


def encode_matrix(request_id: int, nodes=None, name: str = "") -> bytes:
    """A framed :data:`OP_MATRIX` request (``nodes=None`` means every node)."""
    parts = [bytes([OP_MATRIX]), encode_uvarint(request_id), _encode_name(name)]
    if nodes is None:
        parts.append(encode_uvarint(0))
        parts.append(bytes([0]))
    else:
        nodes = list(nodes)
        parts.append(encode_uvarint(len(nodes)))
        parts.append(bytes([1]))
        for node in nodes:
            parts.append(encode_uvarint(node))
    return encode_frame(b"".join(parts))


def encode_stats(request_id: int, name: str = "", *, detail: bool = False) -> bytes:
    """A framed :data:`OP_STATS` request (empty name = server-wide).

    ``detail=True`` appends the additive detail flag byte asking the
    server to embed its latency and per-stage histogram snapshots, which
    fleet merges are computed from.  Fleet-merging consumers (loadgen, the
    supervisor) opt in; a plain STATS poll stays a few hundred bytes.
    Servers ignore trailing bytes they do not understand, so this is
    RSP/1-compatible in both directions.
    """
    body = bytes([OP_STATS]) + encode_uvarint(request_id) + _encode_name(name)
    if detail:
        body += b"\x01"
    return encode_frame(body)


def encode_info(request_id: int) -> bytes:
    """A framed :data:`OP_INFO` request."""
    return encode_frame(bytes([OP_INFO]) + encode_uvarint(request_id))


def encode_trace_request(
    request_id: int, *, limit: int = 32, slow: bool = True
) -> bytes:
    """A framed :data:`OP_TRACE` request.

    ``limit`` caps how many recent traces the worker returns (0 = its whole
    ring); ``slow`` asks for the slow-query log too.
    """
    body = (
        bytes([OP_TRACE])
        + encode_uvarint(request_id)
        + encode_uvarint(limit)
        + (b"\x01" if slow else b"\x00")
    )
    return encode_frame(body)


def _decode_field(body: bytes, pos: int) -> tuple[str, int]:
    """A length-prefixed UTF-8 field; refuses a length past the body."""
    length, pos = decode_uvarint(body, pos)
    end = pos + length
    if end > len(body):
        raise ValueError("truncated length-prefixed field")
    return body[pos:end].decode("utf-8"), end


def _decode_request_suffix(body: bytes, pos: int) -> int | None:
    """The trace id of a QUERY/BATCH request's optional suffix, or ``None``.

    Fields are ``tag byte + uvarint`` in ascending tag order; a field with
    any other tag, and everything after it, is ignored per the
    additive-suffix contract (a feature this server does not speak, or a
    retired one).
    """
    if pos < len(body) and body[pos] == SUFFIX_TRACE:
        return decode_uvarint(body, pos + 1)[0]
    return None


def decode_request(body: bytes):
    """Decode one request body into ``(op, request_id, name, payload, trace_id)``.

    ``payload`` is op-specific: ``(u, v)`` for QUERY, a pair list for BATCH,
    a node list or ``None`` for MATRIX, ``None`` for INFO, for STATS
    ``True`` when the optional detail flag byte is present (else ``None``),
    and ``(limit, include_slow)`` for TRACE.  ``trace_id`` is the optional
    additive suffix tag of QUERY/BATCH requests (``None`` otherwise — the
    ``tracing`` feature of RSP/1).
    """
    if not body:
        raise ProtocolError("empty frame body")
    op = body[0]
    if op not in REQUEST_OPS:
        raise ProtocolError(f"unknown request opcode 0x{op:02x}")
    try:
        request_id, pos = decode_uvarint(body, 1)
        if op == OP_INFO:
            return op, request_id, "", None, None
        if op == OP_TRACE:
            limit, pos = decode_uvarint(body, pos)
            include_slow = pos < len(body) and body[pos] == 1
            return op, request_id, "", (limit, include_slow), None
        name, pos = _decode_field(body, pos)
        if op == OP_STATS:
            detail = pos < len(body) and body[pos] == 1
            return op, request_id, name, True if detail else None, None
        if op == OP_QUERY:
            u, pos = decode_uvarint(body, pos)
            v, pos = decode_uvarint(body, pos)
            return op, request_id, name, (u, v), _decode_request_suffix(body, pos)
        count, pos = decode_uvarint(body, pos)
        if op == OP_BATCH:
            pairs = []
            for _ in range(count):
                u, pos = decode_uvarint(body, pos)
                v, pos = decode_uvarint(body, pos)
                pairs.append((u, v))
            return op, request_id, name, pairs, _decode_request_suffix(body, pos)
        # OP_MATRIX: explicit-nodes flag distinguishes "all nodes" from []
        if pos >= len(body):
            raise ValueError("truncated matrix request")
        explicit = body[pos]
        pos += 1
        if not explicit:
            return op, request_id, name, None, None
        nodes = []
        for _ in range(count):
            node, pos = decode_uvarint(body, pos)
            nodes.append(node)
        return op, request_id, name, nodes, None
    except ValueError as error:
        raise ProtocolError(f"malformed request: {error}") from error


# -- response encoding -------------------------------------------------------


def encode_values(kind: int, values, ratio_bound: float | None = None) -> bytes:
    """The kind-tagged value block shared by every :data:`OP_RESULT`.

    ``values`` is a flat sequence of raw scheme answers; matrix responses
    flatten row-major and the client re-shapes (it knows the node count).
    """
    values = list(values)
    parts = [bytes([kind]), encode_uvarint(len(values))]
    if kind == KIND_EXACT:
        for value in values:
            parts.append(encode_uvarint(value))
    elif kind == KIND_BOUNDED:
        for value in values:
            if value is None:
                parts.append(b"\x00")
            else:
                parts.append(b"\x01" + encode_uvarint(value))
    elif kind == KIND_APPROXIMATE:
        if ratio_bound is None:
            raise ProtocolError("approximate results require a ratio bound")
        parts.insert(1, _DOUBLE.pack(ratio_bound))
        for value in values:
            parts.append(_DOUBLE.pack(value))
    else:
        raise ProtocolError(f"unknown result kind {kind}")
    return b"".join(parts)


def encode_result(request_id: int, kind: int, values, ratio_bound: float | None = None) -> bytes:
    """A framed :data:`OP_RESULT` response."""
    body = bytes([OP_RESULT]) + encode_uvarint(request_id)
    return encode_frame(body + encode_values(kind, values, ratio_bound))


def encode_result_block(answered, kind: int, ratio_bound: float | None = None) -> bytes:
    """Many single-value :data:`OP_RESULT` frames as one byte string.

    ``answered`` is an iterable of ``(request_id, value)``.  This is the
    server coalescer's response path: one call builds every response frame
    destined for one connection, so the per-query cost is a few string
    concatenations instead of a function call per response.
    """
    uvarint = encode_uvarint
    op = bytes([OP_RESULT])
    out = bytearray()
    if kind == KIND_EXACT:
        tag = bytes([kind]) + b"\x01"  # kind + count=1
        for request_id, value in answered:
            body = op + uvarint(request_id) + tag + uvarint(value)
            out += uvarint(len(body))
            out += body
    elif kind == KIND_BOUNDED:
        tag = bytes([kind]) + b"\x01"
        for request_id, value in answered:
            if value is None:
                body = op + uvarint(request_id) + tag + b"\x00"
            else:
                body = op + uvarint(request_id) + tag + b"\x01" + uvarint(value)
            out += uvarint(len(body))
            out += body
    elif kind == KIND_APPROXIMATE:
        if ratio_bound is None:
            raise ProtocolError("approximate results require a ratio bound")
        tag = bytes([kind]) + _DOUBLE.pack(ratio_bound) + b"\x01"
        for request_id, value in answered:
            body = op + uvarint(request_id) + tag + _DOUBLE.pack(value)
            out += uvarint(len(body))
            out += body
    else:
        raise ProtocolError(f"unknown result kind {kind}")
    return bytes(out)


def encode_busy(request_id: int, retry_after_ms: int = 1) -> bytes:
    """A framed :data:`OP_BUSY` response.

    BUSY is request-scoped backpressure: the server's pending-query queue is
    full and this request was shed without being answered.  The payload is a
    uvarint retry hint in milliseconds; clients add their own jitter on top
    (see the retry logic in :mod:`repro.serve.client`).  The connection
    stays fully usable — this is the additive ``"busy"`` feature of RSP/1.
    """
    body = bytes([OP_BUSY]) + encode_uvarint(request_id) + encode_uvarint(retry_after_ms)
    return encode_frame(body)


def encode_error(request_id: int, message: str) -> bytes:
    """A framed :data:`OP_ERROR` response."""
    encoded = message.encode("utf-8")
    body = (
        bytes([OP_ERROR])
        + encode_uvarint(request_id)
        + encode_uvarint(len(encoded))
        + encoded
    )
    return encode_frame(body)


def encode_json_response(op: int, request_id: int, payload: dict) -> bytes:
    """A framed :data:`OP_STATS_RESULT` / :data:`OP_INFO_RESULT` response."""
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    body = bytes([op]) + encode_uvarint(request_id) + encode_uvarint(len(blob)) + blob
    return encode_frame(body)


def decode_response(body: bytes):
    """Decode one response body into ``(op, request_id, payload)``.

    ``payload`` is ``(kind, ratio_bound, values)`` for RESULT, a ``dict``
    for STATS_RESULT / INFO_RESULT, an error-message string for ERROR,
    and the retry-after hint in milliseconds (an ``int``) for BUSY.
    """
    if not body:
        raise ProtocolError("empty frame body")
    op = body[0]
    if op not in RESPONSE_OPS:
        raise ProtocolError(f"unknown response opcode 0x{op:02x}")
    try:
        request_id, pos = decode_uvarint(body, 1)
        if op == OP_BUSY:
            retry_after_ms, pos = decode_uvarint(body, pos)
            return op, request_id, retry_after_ms
        if op == OP_ERROR:
            return op, request_id, _decode_field(body, pos)[0]
        if op in (OP_STATS_RESULT, OP_INFO_RESULT, OP_TRACE_RESULT):
            return op, request_id, json.loads(_decode_field(body, pos)[0])
        kind = body[pos]
        pos += 1
        ratio_bound = None
        if kind == KIND_APPROXIMATE:
            ratio_bound = _DOUBLE.unpack_from(body, pos)[0]
            pos += 8
        count, pos = decode_uvarint(body, pos)
        values: list = []
        if kind == KIND_EXACT:
            for _ in range(count):
                value, pos = decode_uvarint(body, pos)
                values.append(value)
        elif kind == KIND_BOUNDED:
            for _ in range(count):
                flag = body[pos]
                pos += 1
                if flag:
                    value, pos = decode_uvarint(body, pos)
                    values.append(value)
                else:
                    values.append(None)
        elif kind == KIND_APPROXIMATE:
            for _ in range(count):
                values.append(_DOUBLE.unpack_from(body, pos)[0])
                pos += 8
        else:
            raise ValueError(f"unknown result kind {kind}")
        return op, request_id, (kind, ratio_bound, values)
    except (ValueError, IndexError, struct.error) as error:
        raise ProtocolError(f"malformed response: {error}") from error
