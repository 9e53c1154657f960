"""Byte varints: the framing code of the store format and the wire protocol.

The byte-level LEB128 varint (``encode_uvarint``/``decode_uvarint``) is the
framing code of the :mod:`repro.store` binary format and of RSP/1: unlike
the bit codes of :class:`~repro.encoding.bitio.BitWriter` (Elias gamma and
delta) it keeps every field byte-aligned so stored labels can be sliced
zero-copy with :class:`memoryview`.
"""

from __future__ import annotations

#: all 128 one-byte codes, precomputed: the wire protocol encodes several
#: small fields (opcount, name length, frame length) per message
_ONE_BYTE = [bytes((value,)) for value in range(128)]


def encode_uvarint(value: int) -> bytes:
    """LEB128: 7 value bits per byte, high bit set on all but the last.

    Values below 2**21 (request ids, node ids, frame lengths) take a
    straight-line rung; longer ones fall through to the general loop.
    """
    if 0 <= value < 128:
        return _ONE_BYTE[value]
    if value < 0:
        raise ValueError("uvarint encodes non-negative integers only")
    if value < 16384:
        return bytes((0x80 | (value & 0x7F), value >> 7))
    if value < 2097152:
        return bytes((0x80 | (value & 0x7F), 0x80 | ((value >> 7) & 0x7F), value >> 14))
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_uvarint(data, offset: int = 0) -> tuple[int, int]:
    """Read one LEB128 varint from ``data`` at ``offset``.

    Returns ``(value, next_offset)``.  ``data`` may be ``bytes``,
    ``bytearray`` or a ``memoryview``.  Values of up to three bytes
    return before the general loop, which alone raises on truncated or
    over-long input.
    """
    size = len(data)
    if offset < size:
        low = data[offset]
        if low < 0x80:
            return low, offset + 1
        if offset + 1 < size:
            mid = data[offset + 1]
            if mid < 0x80:
                return (low & 0x7F) | (mid << 7), offset + 2
            if offset + 2 < size:
                high = data[offset + 2]
                if high < 0x80:
                    return (low & 0x7F) | ((mid & 0x7F) << 7) | (high << 14), offset + 3
    value = 0
    shift = 0
    pos = offset
    while True:
        if pos >= size:
            raise ValueError("truncated uvarint")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
        if shift > 63:
            raise ValueError("uvarint too long (corrupt stream?)")
