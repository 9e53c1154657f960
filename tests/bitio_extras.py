"""Bit-layer codes and reader moves that only the tests use.

No label format of the library writes a unary or a bounded-width field on
its own, and no decoder peeks, seeks or starts a reader from bytes: every
label is parsed forward from its word (``BitReader.from_word``).  The tests
still exercise these codes and moves against the string-backed reference
of ``bitio_reference``, so they live here, on the packed
:class:`~repro.encoding.bitio.BitReader`'s state.
"""

from __future__ import annotations

from repro.encoding.bitio import BitError, BitReader, BitWriter


def encode_unary(writer: BitWriter, value: int) -> None:
    """Append ``value`` zeros followed by a terminating one."""
    if value < 0:
        raise ValueError("unary code encodes non-negative integers only")
    writer.write_unary(value)


def decode_unary(reader: BitReader) -> int:
    """Read a unary code and return the number of leading zeros."""
    return reader.read_unary()


def bounded_width(universe: int) -> int:
    """Width in bits needed to store any value in ``[0, universe]``."""
    if universe < 0:
        raise ValueError("universe must be non-negative")
    return max(1, universe.bit_length())


def encode_bounded(writer: BitWriter, value: int, universe: int) -> None:
    """Append ``value`` using ``bounded_width(universe)`` bits."""
    if not 0 <= value <= universe:
        raise ValueError(f"value {value} outside universe [0, {universe}]")
    writer.write_int(value, bounded_width(universe))


def decode_bounded(reader: BitReader, universe: int) -> int:
    """Read a value written by :func:`encode_bounded`."""
    return reader.read_int(bounded_width(universe))


def reader_from_bytes(data, bit_length: int) -> BitReader:
    """A reader straight from packed bytes (or a ``memoryview``)."""
    if bit_length < 0:
        raise BitError("bit_length must be non-negative")
    count = (bit_length + 7) // 8
    if len(data) < count:
        raise BitError(f"need {count} bytes for {bit_length} bits, got {len(data)}")
    value = int.from_bytes(data[:count], "big") >> (count * 8 - bit_length)
    return BitReader.from_word(value, bit_length)


def seek(reader: BitReader, position: int) -> None:
    """Move the read cursor to an absolute bit offset."""
    if not 0 <= position <= reader._length:
        raise BitError(f"seek position {position} out of range")
    reader._rem = reader._length - position


def peek_bit(reader: BitReader) -> int:
    """Look at the next bit without consuming it."""
    rem = reader._rem - 1
    if rem < 0:
        raise BitError("bit stream exhausted")
    return (reader._value >> rem) & 1
