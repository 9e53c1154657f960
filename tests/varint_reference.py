"""Reference LEB128 codec: the plain byte loop, one byte per iteration.

:func:`repro.encoding.varint.encode_uvarint` and ``decode_uvarint`` take
short values on straight-line rungs before their general loops.  This
module keeps the loop-only form so the differential tests can hold the
rungs to it, byte for byte and error message for error message.
"""

from __future__ import annotations


def reference_encode(value: int) -> bytes:
    """LEB128: 7 value bits per byte, high bit set on all but the last."""
    if value < 0:
        raise ValueError("uvarint encodes non-negative integers only")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def reference_decode(data, offset: int = 0) -> tuple[int, int]:
    """One LEB128 value from ``data`` at ``offset``: ``(value, next_offset)``."""
    value = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(data):
            raise ValueError("truncated uvarint")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
        if shift > 63:
            raise ValueError("uvarint too long (corrupt stream?)")
