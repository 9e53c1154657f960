"""Monotone sequence encoding (Lemma 2.2).

A non-decreasing sequence of ``s`` integers from ``[0, M]`` is stored in
``O(s * max(1, log(M/s)))`` bits by splitting every value into a low part
(fixed width) and a high part (encoded as unary differences, one ``1`` per
element).

The encoding is self-delimiting so that it can be embedded inside a larger
label and parsed back without knowing its length in advance.  It is decoded
by :meth:`~repro.encoding.bitio.BitReader.read_monotone`, which label
parsers call directly for a plain list; :meth:`MonotoneSequence.read` wraps
the same list, which then offers random access to the ``k``-th element.
Lemma 2.2's other two operations (constant-time successor and the common
suffix of two prefixes) are not provided: every query path in this library
reads a sequence to a list and works on that.
"""

from __future__ import annotations

from repro.encoding.bitio import BitReader, BitWriter, Bits
from repro.encoding.elias import encode_gamma


class MonotoneSequence:
    """A static, bit-packed, non-decreasing integer sequence."""

    def __init__(self, values: list[int]) -> None:
        if any(b < a for a, b in zip(values, values[1:])):
            raise ValueError("MonotoneSequence requires a non-decreasing sequence")
        if any(v < 0 for v in values):
            raise ValueError("MonotoneSequence requires non-negative values")
        self._values = list(values)
        self._bits = self._encode(self._values)

    # -- encoding ------------------------------------------------------

    @staticmethod
    def _low_width(values: list[int]) -> int:
        if not values:
            return 0
        maximum = values[-1]
        count = len(values)
        return max(0, maximum.bit_length() - count.bit_length())

    @classmethod
    def _encode(cls, values: list[int]) -> Bits:
        writer = BitWriter()
        encode_gamma(writer, len(values))
        if not values:
            return writer.getvalue()
        low_width = cls._low_width(values)
        encode_gamma(writer, low_width)
        mask = (1 << low_width) - 1
        for value in values:
            if low_width:
                writer.write_int(value & mask, low_width)
        previous_high = 0
        for value in values:
            high = value >> low_width
            writer.write_unary(high - previous_high)
            previous_high = high
        return writer.getvalue()

    @property
    def bits(self) -> Bits:
        """The self-delimiting encoding of the sequence."""
        return self._bits

    def bit_length(self) -> int:
        """Size of the encoding in bits."""
        return len(self._bits)

    def write(self, writer: BitWriter) -> None:
        """Append the encoding to an existing writer."""
        writer.write_bits(self._bits)

    @classmethod
    def read(cls, reader: BitReader) -> "MonotoneSequence":
        """Parse an encoding produced by :meth:`write` / :attr:`bits`
        (decoded by :meth:`BitReader.read_monotone`)."""
        return cls(reader.read_monotone())

    @classmethod
    def from_bits(cls, bits: Bits) -> "MonotoneSequence":
        """Parse a standalone encoding."""
        return cls.read(BitReader(bits))

    # -- queries -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self):
        return iter(self._values)

    def __getitem__(self, index: int) -> int:
        """Random access to the ``index``-th element."""
        return self._values[index]

    def to_list(self) -> list[int]:
        """The decoded sequence as a plain list."""
        return list(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MonotoneSequence):
            return NotImplemented
        return self._values == other._values

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"MonotoneSequence({self._values!r})"
