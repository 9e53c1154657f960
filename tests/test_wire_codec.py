"""Differential tests of the RSP/1 hot codec against its plain forms.

``encode_uvarint``/``decode_uvarint`` are held to the loop-only LEB128
codec in ``tests/varint_reference.py`` (same bytes, same values, same
``ValueError`` text), ``protocol.encode_query`` to the frame composed
field by field, as the request grammar spells it out, and the native
tier's ``WireCodec.encode_queries`` (the client's corked QUERY runs) to
``protocol.encode_query``.
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.encoding.varint import decode_uvarint, encode_uvarint
from repro.serve import protocol
from varint_reference import reference_decode, reference_encode

#: every rung edge (one below and at each power 2**(7k)) up to 2**64
BOUNDARIES = sorted(
    {0, 1, 2**64 - 1, 2**64}
    | {(1 << (7 * k)) + delta for k in range(1, 10) for delta in (-1, 0, 1)}
)


def _outcome(decode, data, offset):
    """``decode``'s result, or the text of the ``ValueError`` it raised."""
    try:
        return decode(data, offset)
    except ValueError as error:
        return str(error)


@pytest.mark.parametrize("value", BOUNDARIES)
def test_rung_boundaries_match_reference(value):
    encoded = encode_uvarint(value)
    assert encoded == reference_encode(value)
    for data in (encoded, bytearray(encoded), memoryview(encoded)):
        assert decode_uvarint(data) == (value, len(encoded))
    # at an offset, with bytes after it that must stay unread
    framed = b"\x85\x01" + encoded + b"\x81\x80\x01"
    assert decode_uvarint(framed, 2) == (value, 2 + len(encoded))


@settings(max_examples=300, deadline=None)
@given(
    value=st.one_of(st.sampled_from(BOUNDARIES), st.integers(0, 2**64)),
    prefix=st.binary(max_size=4),
    suffix=st.binary(max_size=4),
)
def test_round_trip_at_any_offset(value, prefix, suffix):
    encoded = encode_uvarint(value)
    assert encoded == reference_encode(value)
    data = prefix + encoded + suffix
    assert decode_uvarint(data, len(prefix)) == (value, len(prefix) + len(encoded))


@settings(max_examples=400, deadline=None)
@given(data=st.binary(max_size=14), offset=st.integers(0, 15))
def test_arbitrary_bytes_decode_like_reference(data, offset):
    assert _outcome(decode_uvarint, data, offset) == _outcome(
        reference_decode, data, offset
    )


@pytest.mark.parametrize("value", BOUNDARIES)
def test_truncated_and_over_long_inputs_raise_the_reference_text(value):
    encoded = encode_uvarint(value)
    for cut in range(len(encoded)):
        truncated = b"\x01" + encoded[:cut]
        with pytest.raises(ValueError, match="^truncated uvarint$"):
            decode_uvarint(truncated, 1)
    over_long = b"\x80" * 10 + b"\x01"
    with pytest.raises(ValueError, match=r"^uvarint too long \(corrupt stream\?\)$"):
        decode_uvarint(over_long)
    assert _outcome(reference_decode, over_long, 0) == _outcome(
        decode_uvarint, over_long, 0
    )


def test_negative_values_are_refused_alike():
    for value in (-1, -(2**70)):
        with pytest.raises(ValueError) as ours:
            encode_uvarint(value)
        with pytest.raises(ValueError) as theirs:
            reference_encode(value)
        assert str(ours.value) == str(theirs.value)


def _composed_query(request_id, u, v, name, trace_id):
    """The QUERY frame built field by field with the reference varints."""
    uvarint = reference_encode
    encoded = name.encode("utf-8")
    body = (
        bytes([protocol.OP_QUERY])
        + uvarint(request_id)
        + uvarint(len(encoded))
        + encoded
        + uvarint(u)
        + uvarint(v)
    )
    if trace_id is not None:
        body += bytes([protocol.SUFFIX_TRACE]) + uvarint(trace_id)
    return uvarint(len(body)) + body


_NAMES = st.one_of(
    st.just(""),
    st.text(alphabet="abcdefghij-_.0123456789", max_size=300),
    st.text(max_size=75),  # at most 4 bytes a character: within 300 bytes
)
_OPTIONAL = st.one_of(st.none(), st.integers(0, 2**64))


@settings(max_examples=400, deadline=None)
@given(
    request_id=st.one_of(st.sampled_from(BOUNDARIES), st.integers(0, 2**40)),
    u=st.integers(0, 2**32),
    v=st.integers(0, 2**32),
    name=_NAMES,
    trace_id=_OPTIONAL,
)
def test_encode_query_equals_the_composed_frame(request_id, u, v, name, trace_id):
    frame = protocol.encode_query(request_id, u, v, name, trace_id=trace_id)
    assert frame == _composed_query(request_id, u, v, name, trace_id)
    decoder = protocol.FrameDecoder()
    decoder.feed(frame)
    (body,) = decoder.frames()
    assert protocol.decode_request(body) == (
        protocol.OP_QUERY, request_id, name, (u, v), trace_id,
    )


# -- the client's corked QUERY columns ------------------------------------------

_native = kernels.get_backend("native")
needs_native = pytest.mark.skipif(_native is None, reason="native kernel tier unavailable")

_INT63 = st.one_of(
    st.sampled_from([b for b in BOUNDARIES if b < 2**63]), st.integers(0, 2**63 - 1)
)
_COLUMN_NAMES = st.one_of(
    st.just(""),
    st.text(max_size=12),
    # long enough that the body needs a two-byte length prefix
    st.text(alphabet="abcdefghij-_.0123456789", min_size=120, max_size=300),
    st.text(min_size=32, max_size=75),
)


@needs_native
@settings(max_examples=150, deadline=None)
@given(
    frames=st.lists(st.tuples(_INT63, _INT63, _INT63), min_size=1, max_size=40),
    count=st.integers(1, 1100),
    name=_COLUMN_NAMES,
)
def test_encode_queries_equals_encode_query(frames, count, name):
    """A run of 1-1100 frames (enough to grow the scratch buffer) is byte
    for byte the reference frames, one after another."""
    run = [frames[i % len(frames)] for i in range(count)]
    ids = array("q", [request_id for request_id, _, _ in run])
    pairs = array("q", [value for _, u, v in run for value in (u, v)])
    codec = _native.wire_codec()
    encoded = name.encode("utf-8")
    assert codec.encode_queries(ids, pairs, encoded) == b"".join(
        protocol.encode_query(request_id, u, v, name) for request_id, u, v in run
    )
    # the grown scratch serves a short run after it
    assert codec.encode_queries(ids[:1], pairs[:2], encoded) == protocol.encode_query(
        *run[0], name
    )


@needs_native
def test_encode_queries_takes_any_name_length_and_refuses_negatives():
    codec = _native.wire_codec()
    name = "m" * 20000  # a three-byte length prefix
    ids, pairs = array("q", [1, 2**63 - 1]), array("q", [0, 5, 2**62, 7])
    assert codec.encode_queries(ids, pairs, name.encode()) == (
        protocol.encode_query(1, 0, 5, name) + protocol.encode_query(2**63 - 1, 2**62, 7, name)
    )
    assert codec.encode_queries(array("q"), array("q")) == b""
    for bad in ((-1, 0, 0), (0, -1, 0), (0, 0, -(2**63))):
        assert codec.encode_queries(array("q", bad[:1]), array("q", bad[1:])) is None
    with pytest.raises(ValueError):
        codec.encode_queries(array("q", [1]), array("q", [1]))
