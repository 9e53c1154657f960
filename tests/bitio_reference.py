"""The pre-packing, character-per-bit bit layer (frozen reference).

This is the original ``repro.encoding.bitio`` implementation, kept verbatim
(plus the few newer entry points — ``write_zeros``, ``write_unary``,
``read_unary``, ``BitReader.from_bytes`` — implemented here in the same
string style).  The field codecs are written here a second time, a unary
run and a binary field at a time on the character writer and reader, and
import nothing from :mod:`repro.encoding`: the encoders
:func:`encode_gamma`, :func:`encode_delta` and :func:`encode_monotone`
are the independent check of ``BitWriter.write_gamma`` and its siblings,
the one encode layer every label's ``write`` runs on, and the decoders
:func:`decode_gamma`, :func:`decode_delta`, :func:`decode_prefixed_bits`
and :func:`decode_monotone` that of ``BitReader.read_gamma`` and its
siblings, the one decode layer every label's ``read`` runs on.  The
encoders keep the messages and exception types of the encoders the
library used before the writer held them.

It exists for three reasons:

* ``tests/test_bitio_packed.py`` checks every operation of the packed
  :mod:`repro.encoding.bitio` against this implementation,
* the reference label parsers (``freedman_reference``,
  ``label_reference``) decode on it, and
* the reference HLD pipeline at the bottom — the pre-packing
  string-backed pack/parse/serve path, rebuilt on this layer — is the
  baseline ``tests/test_speed_gates.py`` measures the packed store against,
  so the speedup of the word-packed layer stays an empirical number rather
  than a claim.

Import it from the tests as ``import bitio_reference as ref``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.encoding.bitio import BitError


@dataclass(frozen=True)
class Bits:
    """An immutable bit string stored as a ``'0'``/``'1'`` character string."""

    data: str = ""

    def __post_init__(self) -> None:
        if self.data and set(self.data) - {"0", "1"}:
            raise BitError(f"invalid characters in bit string: {self.data!r}")

    def __len__(self) -> int:
        return len(self.data)

    def __iter__(self):
        return iter(self.data)

    def __getitem__(self, item) -> "Bits":
        if isinstance(item, slice):
            return Bits(self.data[item])
        return Bits(self.data[item])

    def __add__(self, other: "Bits") -> "Bits":
        return Bits(self.data + other.data)

    def __bool__(self) -> bool:
        return bool(self.data)

    def to_int(self) -> int:
        """Interpret the bits as a big-endian binary number (empty -> 0)."""
        return int(self.data, 2) if self.data else 0

    @staticmethod
    def from_int(value: int, width: int | None = None) -> "Bits":
        """Encode ``value`` in binary, optionally zero-padded to ``width`` bits."""
        if value < 0:
            raise BitError("Bits.from_int expects a non-negative integer")
        if width is None:
            return Bits(bin(value)[2:] if value else "")
        if width < 0:
            raise BitError("width must be non-negative")
        if value >= (1 << width) and width > 0:
            raise BitError(f"value {value} does not fit in {width} bits")
        if width == 0:
            if value:
                raise BitError(f"value {value} does not fit in 0 bits")
            return Bits("")
        return Bits(format(value, f"0{width}b"))

    def to_bytes(self) -> bytes:
        """Pack the bits into bytes, MSB-first, zero-padded at the end."""
        if not self.data:
            return b""
        count = (len(self.data) + 7) // 8
        padded = self.data.ljust(count * 8, "0")
        return int(padded, 2).to_bytes(count, "big")

    @staticmethod
    def from_bytes(data, bit_length: int) -> "Bits":
        """Unpack ``bit_length`` MSB-first bits from ``data``."""
        if bit_length < 0:
            raise BitError("bit_length must be non-negative")
        if bit_length == 0:
            return Bits("")
        count = (bit_length + 7) // 8
        if len(data) < count:
            raise BitError(
                f"need {count} bytes for {bit_length} bits, got {len(data)}"
            )
        value = int.from_bytes(bytes(data[:count]), "big")
        return Bits(format(value, f"0{count * 8}b")[:bit_length])

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        return self.data


class BitWriter:
    """Accumulates bits (as string chunks) and produces a :class:`Bits`."""

    def __init__(self) -> None:
        self._chunks: list[str] = []
        self._length = 0

    def __len__(self) -> int:
        return self._length

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1)."""
        if bit not in (0, 1):
            raise BitError(f"bit must be 0 or 1, got {bit!r}")
        self._chunks.append("1" if bit else "0")
        self._length += 1

    def write_bits(self, bits: "Bits | str") -> None:
        """Append an existing bit string."""
        data = bits.data if isinstance(bits, Bits) else bits
        if data and set(data) - {"0", "1"}:
            raise BitError(f"invalid characters in bit string: {data!r}")
        self._chunks.append(data)
        self._length += len(data)

    def write_int(self, value: int, width: int) -> None:
        """Append ``value`` as a fixed-width big-endian binary number."""
        self.write_bits(Bits.from_int(value, width))

    def write_zeros(self, count: int) -> None:
        """Append a run of ``count`` zero bits."""
        if count < 0:
            raise BitError("count must be non-negative")
        self._chunks.append("0" * count)
        self._length += count

    def write_unary(self, value: int) -> None:
        """Append the unary code ``0^value 1``."""
        if value < 0:
            raise BitError("unary code encodes non-negative integers only")
        self._chunks.append("0" * value + "1")
        self._length += value + 1

    def getvalue(self) -> Bits:
        """Return everything written so far as a single :class:`Bits`."""
        return Bits("".join(self._chunks))


class BitReader:
    """Sequential reader over a :class:`Bits` value (character cursor)."""

    def __init__(self, bits: "Bits | str") -> None:
        self._data = bits.data if isinstance(bits, Bits) else bits
        self._pos = 0

    @classmethod
    def from_bytes(cls, data, bit_length: int) -> "BitReader":
        """Build a reader from packed bytes via the string round-trip."""
        return cls(Bits.from_bytes(data, bit_length))

    @property
    def position(self) -> int:
        """Current read offset in bits."""
        return self._pos

    def seek(self, position: int) -> None:
        """Move the read cursor to an absolute bit offset."""
        if not 0 <= position <= len(self._data):
            raise BitError(f"seek position {position} out of range")
        self._pos = position

    def remaining(self) -> int:
        """Number of unread bits."""
        return len(self._data) - self._pos

    def read_bit(self) -> int:
        """Read a single bit."""
        if self._pos >= len(self._data):
            raise BitError("bit stream exhausted")
        bit = 1 if self._data[self._pos] == "1" else 0
        self._pos += 1
        return bit

    def read_bits(self, count: int) -> Bits:
        """Read ``count`` bits as a :class:`Bits` value."""
        if count < 0:
            raise BitError("count must be non-negative")
        if self._pos + count > len(self._data):
            raise BitError("bit stream exhausted")
        out = self._data[self._pos : self._pos + count]
        self._pos += count
        return Bits(out)

    def read_int(self, width: int) -> int:
        """Read a fixed-width big-endian binary number."""
        return self.read_bits(width).to_int()

    def read_unary(self) -> int:
        """Read a unary code ``0^k 1`` and return ``k``, bit by bit."""
        count = 0
        while self.read_bit() == 0:
            count += 1
        return count

    def peek_bit(self) -> int:
        """Look at the next bit without consuming it."""
        if self._pos >= len(self._data):
            raise BitError("bit stream exhausted")
        return 1 if self._data[self._pos] == "1" else 0


# -- self-delimiting fields, one unary run and binary field at a time ---------


def encode_gamma(writer: BitWriter, value: int) -> None:
    """Elias gamma of ``value >= 0``: ``value + 1`` behind its zero prefix."""
    if value < 0:
        raise ValueError("Elias gamma encodes non-negative integers only")
    shifted = value + 1
    writer.write_int(shifted, 2 * shifted.bit_length() - 1)


def gamma_length(value: int) -> int:
    """Number of bits :func:`encode_gamma` writes for ``value``."""
    writer = BitWriter()
    encode_gamma(writer, value)
    return len(writer)


def encode_delta(writer: BitWriter, value: int) -> None:
    """Elias delta of ``value >= 0``: gamma(width), then the low ``width``
    bits of ``value + 1``."""
    if value < 0:
        raise ValueError("Elias delta encodes non-negative integers only")
    shifted = value + 1
    width = shifted.bit_length() - 1
    encode_gamma(writer, width)
    if width:
        writer.write_int(shifted - (1 << width), width)


def encode_monotone(writer: BitWriter, values: list[int]) -> None:
    """A Lemma 2.2 monotone sequence: gamma count, gamma low width, the
    low parts, then the high parts as unary differences."""
    if any(b < a for a, b in zip(values, values[1:])):
        raise ValueError("MonotoneSequence requires a non-decreasing sequence")
    if any(value < 0 for value in values):
        raise ValueError("MonotoneSequence requires non-negative values")
    encode_gamma(writer, len(values))
    if not values:
        return
    low_width = max(0, values[-1].bit_length() - len(values).bit_length())
    encode_gamma(writer, low_width)
    for value in values:
        writer.write_int(value & ((1 << low_width) - 1), low_width)
    previous_high = 0
    for value in values:
        high = value >> low_width
        writer.write_unary(high - previous_high)
        previous_high = high


def decode_gamma(reader: BitReader) -> int:
    """Elias gamma: ``z`` zeros, a one, then ``z`` more bits."""
    zeros = reader.read_unary()
    rest = reader.read_int(zeros) if zeros else 0
    return ((1 << zeros) | rest) - 1


def decode_delta(reader: BitReader) -> int:
    """Elias delta: gamma(width), then the low ``width`` bits of ``value + 1``."""
    width = decode_gamma(reader)
    if not width:
        return 0
    # the bits first: a corrupt width runs past the stream (BitError)
    # before ``1 << width`` could exhaust memory
    low = reader.read_int(width)
    return ((1 << width) | low) - 1


def decode_prefixed_bits(reader: BitReader) -> Bits:
    """A gamma-coded length, then that many bits."""
    return reader.read_bits(decode_gamma(reader))


def decode_monotone(reader: BitReader) -> list[int]:
    """A Lemma 2.2 monotone sequence: gamma count, gamma low width, the
    low parts, then the high parts as unary differences."""
    count = decode_gamma(reader)
    if not count:
        return []
    if count > reader.remaining():
        # every element ends in a unary ``1``
        raise BitError("bit stream exhausted")
    low_width = decode_gamma(reader)
    lows = [reader.read_int(low_width) for _ in range(count)]
    values = []
    high = 0
    for low in lows:
        high += reader.read_unary()
        values.append((high << low_width) | low)
    if any(b < a for a, b in zip(values, values[1:])):
        raise ValueError("MonotoneSequence requires a non-decreasing sequence")
    return values


# -- the pre-packing HLD pipeline (string-backed bit layer) -------------------


def reference_pack_hld(labels) -> tuple[list[int], bytes]:
    """``LabelStore.from_labels`` as the string-backed code performed it.

    Serialises every HLD label through the reference writer (character
    chunks, ``format`` based ``write_int``) and packs via the string
    ``to_bytes`` — the exact pre-rewrite work per label.
    """
    bit_lengths: list[int] = []
    chunks: list[bytes] = []
    for node in range(len(labels)):
        label = labels[node]
        writer = BitWriter()
        encode_gamma(writer, label.id_width)
        encode_gamma(writer, label.distance_width)
        path_ids = label.path_ids
        exits = label.exits
        encode_gamma(writer, len(path_ids))
        writer.write_int(label.root_distance, label.distance_width)
        for path_id, exit_distance in zip(path_ids, exits):
            writer.write_int(path_id, label.id_width)
            writer.write_int(exit_distance, label.distance_width)
        bits = writer.getvalue()
        bit_lengths.append(len(bits))
        chunks.append(bits.to_bytes())
    return bit_lengths, b"".join(chunks)


@dataclass
class _ReferenceHLDLabel:
    """The pre-packing parsed label: a plain dataclass with list fields."""

    root_distance: int
    path_ids: list[int]
    exits: list[int]
    id_width: int
    distance_width: int


def _reference_parse_hld(store, node) -> _ReferenceHLDLabel:
    """One label through the string round-trip and the character reader."""
    reader = BitReader(Bits.from_bytes(store.raw(node), store.bit_length(node)))
    id_width = decode_gamma(reader)
    distance_width = decode_gamma(reader)
    count = decode_gamma(reader)
    root_distance = reader.read_int(distance_width)
    path_ids = []
    exits = []
    for _ in range(count):
        path_ids.append(reader.read_int(id_width))
        exits.append(reader.read_int(distance_width))
    return _ReferenceHLDLabel(root_distance, path_ids, exits, id_width, distance_width)


def _reference_distance(label_u, label_v) -> int:
    """The pre-packing decoder: walk the two id lists until they diverge."""
    deepest_common = -1
    for index, (a, b) in enumerate(zip(label_u.path_ids, label_v.path_ids)):
        if a != b:
            break
        deepest_common = index
    if deepest_common < 0:
        raise ValueError("labels do not come from the same tree")
    nca_distance = min(label_u.exits[deepest_common], label_v.exits[deepest_common])
    return label_u.root_distance + label_v.root_distance - 2 * nca_distance


def _reference_query(label_u, label_v) -> int:
    """The pre-packing ``LabelingScheme.query`` indirection over distance."""
    return _reference_distance(label_u, label_v)


def reference_batch_query_hld(store, pairs, cache_size: int = 4096) -> list[int]:
    """``QueryEngine.batch_query`` as the pre-packing engine executed it.

    Per-node LRU bookkeeping (membership test, ``move_to_end``, insert,
    eviction check), two string-reader parses per distinct endpoint and the
    ``query -> distance`` call chain, exactly like the old
    ``parsed_label`` / ``_parse_batch`` / ``batch_query`` trio.
    """
    cache: OrderedDict[int, _ReferenceHLDLabel] = OrderedDict()

    def parsed_label(node: int):
        if node in cache:
            cache.move_to_end(node)
            return cache[node]
        label = _reference_parse_hld(store, node)
        cache[node] = label
        if len(cache) > cache_size:
            cache.popitem(last=False)
        return label

    parsed: dict[int, _ReferenceHLDLabel] = {}
    for node in (node for pair in pairs for node in pair):
        if node not in parsed:
            parsed[node] = parsed_label(node)
    query = _reference_query
    return [query(parsed[u], parsed[v]) for u, v in pairs]
