"""Bit-oriented readers and writers (word-packed).

Labels in this library are bit strings wrapped in the small :class:`Bits`
value type.  ``Bits`` is backed by a single arbitrary-precision integer plus
an explicit bit length: the first (leftmost) bit of the string is the most
significant bit of the integer.  Every hot operation — concatenation,
slicing, fixed-width reads and writes, unary runs, byte packing — is a
shift/mask on machine words, the way the word-RAM model the paper works in
counts operations.  All size accounting (``len(bits)``) remains exact in
bits, and the printable ``'0'``/``'1'`` view is still available through
:attr:`Bits.data` for diagnostics and tests.

There is one writer and one reader.  :class:`BitWriter` holds the only
copy of the encode arithmetic of the paper's self-delimiting fields
(Section 2, "Encoding integers": Elias gamma and delta codes,
length-prefixed bit strings, Lemma 2.2 monotone sequences) and
:class:`BitReader` the only copy of their decode arithmetic; every label
class's ``write``/``read`` pair runs on them.

The previous character-per-bit implementation is preserved verbatim in
``tests/bitio_reference.py``: ``tests/test_bitio_packed.py`` checks the two
against each other, and ``tests/test_speed_gates.py`` measures the packed
store against the pre-packing pipeline built on it.
"""

from __future__ import annotations


class BitError(ValueError):
    """Raised when a bit stream is malformed or exhausted."""


class Bits:
    """An immutable bit string backed by ``(int value, int length)``.

    ``Bits`` behaves like a very small value object: it supports length,
    equality, hashing, concatenation, slicing and conversion to and from
    integers and packed bytes.  The constructor accepts the printable
    ``'0'``/``'1'`` form for compatibility (and readability in tests); the
    fast paths never materialise that string.
    """

    __slots__ = ("_value", "_length")

    def __init__(self, data: str = "") -> None:
        if isinstance(data, Bits):
            value, length = data._value, data._length
        else:
            length = len(data)
            if length and (set(data) - {"0", "1"}):
                raise BitError(f"invalid characters in bit string: {data!r}")
            value = int(data, 2) if length else 0
        object.__setattr__(self, "_value", value)
        object.__setattr__(self, "_length", length)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Bits is immutable")

    def __reduce__(self):
        # the immutability guard blocks default pickle/deepcopy state
        # restoration; rebuild through the packed constructor instead
        return (Bits._pack, (self._value, self._length))

    @classmethod
    def _pack(cls, value: int, length: int) -> "Bits":
        """Internal fast constructor: ``value`` must fit in ``length`` bits."""
        self = object.__new__(cls)
        object.__setattr__(self, "_value", value)
        object.__setattr__(self, "_length", length)
        return self

    @property
    def data(self) -> str:
        """The printable ``'0'``/``'1'`` form (materialised on demand)."""
        length = self._length
        return format(self._value, f"0{length}b") if length else ""

    def __len__(self) -> int:
        return self._length

    def __iter__(self):
        return iter(self.data)

    def __getitem__(self, item) -> "Bits":
        length = self._length
        if isinstance(item, slice):
            start, stop, step = item.indices(length)
            if step == 1:
                if stop <= start:
                    return _EMPTY
                width = stop - start
                return Bits._pack(
                    (self._value >> (length - stop)) & ((1 << width) - 1), width
                )
            return Bits(self.data[item])
        if item < 0:
            item += length
        if not 0 <= item < length:
            raise IndexError("Bits index out of range")
        return _ONE if (self._value >> (length - 1 - item)) & 1 else _ZERO

    def __add__(self, other: "Bits") -> "Bits":
        return Bits._pack(
            (self._value << other._length) | other._value,
            self._length + other._length,
        )

    def __bool__(self) -> bool:
        return self._length > 0

    def __eq__(self, other) -> bool:
        if isinstance(other, Bits):
            return self._length == other._length and self._value == other._value
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._length, self._value))

    def to_int(self) -> int:
        """Interpret the bits as a big-endian binary number (empty -> 0)."""
        return self._value

    @staticmethod
    def from_int(value: int, width: int | None = None) -> "Bits":
        """Encode ``value`` in binary, optionally zero-padded to ``width`` bits."""
        if value < 0:
            raise BitError("Bits.from_int expects a non-negative integer")
        if width is None:
            return Bits._pack(value, value.bit_length())
        if width < 0:
            raise BitError("width must be non-negative")
        if value >> width:
            raise BitError(f"value {value} does not fit in {width} bits")
        return Bits._pack(value, width)

    def to_bytes(self) -> bytes:
        """Pack the bits into bytes, MSB-first, zero-padded at the end.

        The first bit of the string becomes the highest bit of the first
        byte; a trailing partial byte is padded with zeros on the right.
        ``len(self)`` must be remembered separately to invert exactly —
        see :meth:`from_bytes`.
        """
        length = self._length
        if not length:
            return b""
        count = (length + 7) // 8
        return (self._value << (count * 8 - length)).to_bytes(count, "big")

    @staticmethod
    def from_bytes(data, bit_length: int) -> "Bits":
        """Unpack ``bit_length`` MSB-first bits from ``data``.

        ``data`` may be ``bytes`` or a ``memoryview`` (zero-copy slices of a
        :class:`repro.store.LabelStore` buffer); only the first
        ``ceil(bit_length / 8)`` bytes are examined.  No intermediate
        character string is built: the bytes become the packed integer
        directly.
        """
        if bit_length < 0:
            raise BitError("bit_length must be non-negative")
        if bit_length == 0:
            return _EMPTY
        count = (bit_length + 7) // 8
        if len(data) < count:
            raise BitError(
                f"need {count} bytes for {bit_length} bits, got {len(data)}"
            )
        value = int.from_bytes(data[:count], "big") >> (count * 8 - bit_length)
        return Bits._pack(value, bit_length)

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        return self.data

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Bits(data={self.data!r})"


_EMPTY = Bits._pack(0, 0)
_ZERO = Bits._pack(0, 1)
_ONE = Bits._pack(1, 1)


def append_monotone(word: int, values: list[int]) -> int:
    """Shift one Lemma 2.2 monotone sequence onto ``word``; return the word.

    The one copy of the encoder, behind :meth:`BitWriter.write_monotone`:
    gamma count, gamma low width, the fixed-width low parts, then the high
    parts as unary differences ``0^d 1``.  Raises ``ValueError`` for a
    decreasing or negative sequence, before any unary run longer than the
    last element's high part is built.
    """
    count = len(values)
    word = word << 2 * (count + 1).bit_length() - 1 | count + 1
    if not count:
        return word
    last = values[-1]
    low_width = max(0, last.bit_length() - count.bit_length())
    word = word << 2 * (low_width + 1).bit_length() - 1 | low_width + 1
    if low_width:
        mask = (1 << low_width) - 1
        for value in values:
            word = word << low_width | value & mask
    previous = values[0]
    if previous < 0:
        raise ValueError("a monotone sequence must be non-negative")
    high = 0
    for value in values:
        # above ``last`` means a drop further on: rejected before its high
        # part, whose unary run could be arbitrarily long, is shifted in
        if not previous <= value <= last:
            raise ValueError("a monotone sequence must be non-decreasing")
        previous = value
        step = (value >> low_width) - high
        high += step
        word = (word << step + 1) | 1
    return word


class BitWriter:
    """Accumulates bits into one integer: the one label encoder.

    The mirror of :class:`BitReader`.  The bits written so far sit behind
    a leading sentinel ``1`` bit in a single integer (``_word``), so every
    write is one shift and one OR, and the length is
    ``_word.bit_length() - 1``.  Besides the raw writes (a bit, a bit
    string, a fixed-width field, a zero run, a unary code) it encodes the
    self-delimiting fields every label is built from: Elias gamma and
    delta codes, gamma-length-prefixed bit strings and Lemma 2.2 monotone
    sequences.  Each label class serialises itself with one
    ``write(writer)`` over these methods, and no other copy of the
    arithmetic exists.

    A rejected write (a negative code, a decreasing sequence, a value too
    wide for its field) raises before the writer changes.
    """

    __slots__ = ("_word",)

    def __init__(self) -> None:
        self._word = 1

    def __len__(self) -> int:
        return self._word.bit_length() - 1

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1)."""
        if bit not in (0, 1):
            raise BitError(f"bit must be 0 or 1, got {bit!r}")
        self._word = self._word << 1 | (1 if bit else 0)

    def write_bits(self, bits: "Bits | str") -> None:
        """Append an existing bit string."""
        if not isinstance(bits, Bits):
            bits = Bits(bits)
        self._word = self._word << bits._length | bits._value

    def write_int(self, value: int, width: int) -> None:
        """Append ``value`` as a fixed-width big-endian binary number."""
        if value < 0:
            raise BitError("BitWriter.write_int expects a non-negative integer")
        if width < 0:
            raise BitError("width must be non-negative")
        if value >> width:
            raise BitError(f"value {value} does not fit in {width} bits")
        self._word = self._word << width | value

    def write_zeros(self, count: int) -> None:
        """Append a run of ``count`` zero bits (one shift, no loop)."""
        if count < 0:
            raise BitError("count must be non-negative")
        self._word <<= count

    def write_unary(self, value: int) -> None:
        """Append the unary code ``0^value 1`` (one shift, no loop)."""
        if value < 0:
            raise BitError("unary code encodes non-negative integers only")
        self._word = self._word << value + 1 | 1

    # -- self-delimiting fields ----------------------------------------------

    def write_gamma(self, value: int) -> None:
        """Append the Elias gamma code of ``value >= 0``.

        ``value + 1`` has ``z + 1`` significant bits; written in
        ``2z + 1`` bits it carries its own ``z`` leading zeros, the unary
        part, so the whole code is one shift.
        """
        if value < 0:
            raise ValueError("Elias gamma encodes non-negative integers only")
        value += 1
        self._word = self._word << 2 * value.bit_length() - 1 | value

    def write_delta(self, value: int) -> None:
        """Append the Elias delta code of ``value >= 0``: gamma(width), then
        the ``width`` bits of ``value + 1`` below its leading one."""
        if value < 0:
            raise ValueError("Elias delta encodes non-negative integers only")
        value += 1
        width = value.bit_length() - 1
        code = width + 1
        word = self._word << 2 * code.bit_length() - 1 | code
        self._word = word << width | value ^ 1 << width

    def write_prefixed_bits(self, bits: Bits) -> None:
        """Append a gamma-coded length followed by the bits themselves."""
        count = bits._length
        code = count + 1
        word = self._word << 2 * code.bit_length() - 1 | code
        self._word = word << count | bits._value

    def write_monotone(self, values: list[int]) -> None:
        """Append one Lemma 2.2 monotone sequence (see :func:`append_monotone`)."""
        self._word = append_monotone(self._word, values)

    def getvalue(self) -> Bits:
        """Return everything written so far as a single :class:`Bits`."""
        word = self._word
        length = word.bit_length() - 1
        return Bits._pack(word ^ 1 << length, length)

    def packed(self) -> tuple[int, bytes]:
        """``(bit_length, payload)`` of everything written so far: the bits
        MSB-first, zero-padded at the end to a byte, as
        ``getvalue().to_bytes()`` packs them and a label store holds them."""
        word = self._word
        length = word.bit_length() - 1
        count = (length + 7) >> 3
        return length, ((word ^ 1 << length) << (count * 8 - length)).to_bytes(count, "big")


class BitReader:
    """Sequential reader over one packed integer: the one label decoder.

    A reader is the label's integer, its bit length and the count of
    unread bits (``_rem``); the unread bits are the low ``_rem`` bits of
    the integer, so every read is a shift and a mask.  Besides the raw
    reads (a bit, a fixed-width field, a unary run) it decodes the
    self-delimiting fields every label in the paper is built from (Section
    2, "Encoding integers"): Elias gamma and delta codes, gamma-length-
    prefixed bit strings and Lemma 2.2 monotone sequences.  Each label
    class parses itself with one ``read(reader)`` over these methods, and
    no other copy of the arithmetic exists.

    Malformed input raises :class:`BitError` (a code that runs past the
    end) or ``ValueError`` (a decreasing monotone sequence); a count is
    checked against the unread bits before anything is allocated for it.
    """

    __slots__ = ("_value", "_length", "_rem")

    def __init__(self, bits: "Bits | str") -> None:
        if not isinstance(bits, Bits):
            bits = Bits(bits)
        self._value = bits._value
        self._length = self._rem = bits._length

    @classmethod
    def from_word(cls, value: int, length: int) -> "BitReader":
        """A reader over the ``length``-bit string whose integer is ``value``.

        The entry point of the store's word supply
        (:meth:`repro.store.LabelStore.label_words`): no :class:`Bits` is
        built.  Bits of ``value`` above ``length`` are never read, so a
        word may keep a sentinel bit in front of the label.
        """
        if length < 0:
            raise BitError("bit_length must be non-negative")
        self = object.__new__(cls)
        self._value = value
        self._length = self._rem = length
        return self

    @property
    def position(self) -> int:
        """Current read offset in bits."""
        return self._length - self._rem

    def remaining(self) -> int:
        """Number of unread bits."""
        return self._rem

    def read_bit(self) -> int:
        """Read a single bit."""
        rem = self._rem - 1
        if rem < 0:
            raise BitError("bit stream exhausted")
        self._rem = rem
        return (self._value >> rem) & 1

    def read_bits(self, count: int) -> Bits:
        """Read ``count`` bits as a :class:`Bits` value."""
        if count < 0:
            raise BitError("count must be non-negative")
        rem = self._rem - count
        if rem < 0:
            raise BitError("bit stream exhausted")
        self._rem = rem
        return Bits._pack((self._value >> rem) & ((1 << count) - 1), count)

    def read_int(self, width: int) -> int:
        """Read a fixed-width big-endian binary number."""
        if width < 0:
            raise BitError("count must be non-negative")
        rem = self._rem - width
        if rem < 0:
            raise BitError("bit stream exhausted")
        self._rem = rem
        return (self._value >> rem) & ((1 << width) - 1)

    def read_unary(self) -> int:
        """Read a unary code ``0^k 1`` and return ``k`` (the zero count).

        The run length is found with a single ``bit_length`` call on the
        unread suffix instead of a bit-by-bit loop.
        """
        rem = self._rem
        significant = (self._value & ((1 << rem) - 1)).bit_length()
        if not significant:
            raise BitError("bit stream exhausted")
        self._rem = significant - 1
        return rem - significant

    # -- self-delimiting fields ----------------------------------------------

    def read_gamma(self) -> int:
        """Read one Elias gamma code (``0^z 1 rest``, value ``1 rest`` - 1).

        One ``bit_length`` on the unread suffix finds the unary run; the
        code's value is then the ``z + 1`` bits from its leading one.
        """
        rem = self._rem
        suffix = self._value & ((1 << rem) - 1)
        significant = suffix.bit_length()
        # the ``z`` zeros must be followed by at least ``z + 1`` bits
        rem = 2 * significant - rem - 1
        if not significant or rem < 0:
            raise BitError("bit stream exhausted")
        self._rem = rem
        return (suffix >> rem) - 1

    def read_delta(self) -> int:
        """Read one Elias delta code: gamma(width), then ``width`` low bits."""
        width = self.read_gamma()
        if not width:
            return 0
        rem = self._rem - width
        if rem < 0:
            raise BitError("bit stream exhausted")
        self._rem = rem
        return ((1 << width) | ((self._value >> rem) & ((1 << width) - 1))) - 1

    def read_prefixed_bits(self) -> Bits:
        """Read a gamma-coded length followed by that many payload bits."""
        return self.read_bits(self.read_gamma())

    def read_monotone(self) -> list[int]:
        """Read one Lemma 2.2 monotone sequence as a plain list.

        The layout :meth:`BitWriter.write_monotone` writes: gamma count,
        gamma low width, the fixed-width low parts, then the high parts as
        unary differences.  A decreasing sequence raises ``ValueError``
        once the whole sequence is read, so a truncated one raises
        :class:`BitError` first.
        """
        count = self.read_gamma()
        if not count:
            return []
        if count > self._rem:
            # every element ends in a unary ``1``: the count cannot fit
            raise BitError("bit stream exhausted")
        low_width = self.read_gamma()
        value = self._value
        rem = self._rem
        if low_width:
            top = rem - low_width
            rem -= count * low_width
            if rem < 0:
                raise BitError("bit stream exhausted")
            mask = (1 << low_width) - 1
            lows = [(value >> shift) & mask for shift in range(top, rem - 1, -low_width)]
        else:
            lows = [0] * count
        suffix = value & ((1 << rem) - 1)
        values = []
        high = previous = 0
        ordered = True
        for low in lows:
            significant = suffix.bit_length()
            if not significant:
                raise BitError("bit stream exhausted")
            high += rem - significant
            rem = significant - 1
            suffix ^= 1 << rem
            item = (high << low_width) | low
            if item < previous:
                ordered = False
            previous = item
            values.append(item)
        self._rem = rem
        if not ordered:
            raise ValueError("a monotone sequence must be non-decreasing")
        return values
