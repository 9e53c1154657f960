"""The packed label store: one buffer, an offset index, save/load.

See the package docstring of :mod:`repro.store` for the binary format.

A store never copies the payload it is handed: ``__init__`` wraps any
buffer-protocol object (``bytes``, ``bytearray``, ``memoryview``,
``mmap.mmap``) in a ``memoryview`` and keeps a reference to the backing
object, so :meth:`LabelStore.from_bytes` over a catalog slice and
:meth:`LabelStore.open_mmap` over a mapped file both serve straight from
the original storage.  The offset index is reconstructed at load time into
compact ``array('Q')`` words (8 bytes per label instead of a Python ``int``
object each), which is what keeps a 10⁷-label index affordable.
"""

from __future__ import annotations

import json
import os
from array import array

from repro.encoding.bitio import Bits
from repro.encoding.varint import decode_uvarint, encode_uvarint

#: magic prefix of a serialised store, "Repro Label Store v1"
STORE_MAGIC = b"RLS1"


class StoreError(ValueError):
    """Raised when a store file is malformed or inconsistent."""


def _as_byte_view(payload) -> memoryview:
    """A flat read-only byte view of any buffer-protocol object."""
    view = payload if isinstance(payload, memoryview) else memoryview(payload)
    if view.format != "B" or view.ndim != 1:
        view = view.cast("B")
    return view.toreadonly()


class LabelStore:
    """All labels of one encoded tree, packed into a contiguous buffer.

    A store is immutable once built.  It knows which scheme produced it
    (``scheme_name`` + ``scheme_params``, the spec resolved back through
    :func:`repro.core.registry.make_any_scheme`) but holds no parsed labels
    and no tree — only bits.
    """

    def __init__(
        self,
        scheme_name: str,
        scheme_params: dict,
        bit_lengths,
        payload,
    ) -> None:
        self.scheme_name = scheme_name
        self.scheme_params = dict(scheme_params)
        # the payload is *wrapped*, never copied: the memoryview pins the
        # backing object (bytes, a catalog slice, an mmap) for its lifetime
        self._backing = payload
        self._view = _as_byte_view(payload)

        lengths = array("Q")
        offsets = array("Q", (0,))
        total = 0
        try:
            for bits in bit_lengths:
                lengths.append(bits)
                total += (bits + 7) // 8
                offsets.append(total)
        except (OverflowError, TypeError) as error:
            raise StoreError(f"negative or invalid label bit length: {error}") from error
        if total != self._view.nbytes:
            raise StoreError(
                f"payload is {self._view.nbytes} bytes but the index "
                f"describes {total}"
            )
        self._bit_lengths = lengths
        self._offsets = offsets

    # -- construction --------------------------------------------------------

    @classmethod
    def from_labels(cls, scheme, labels: dict[int, object]) -> "LabelStore":
        """Pack the labels ``scheme.encode`` produced for nodes ``0..n-1``."""
        n = len(labels)
        if set(labels) != set(range(n)):
            raise StoreError("labels must be keyed by the nodes 0..n-1")
        bit_lengths: list[int] = []
        chunks: list[bytes] = []
        for node in range(n):
            bits = labels[node].to_bits()
            bit_lengths.append(len(bits))
            chunks.append(bits.to_bytes())
        return cls(
            scheme_name=scheme.name,
            scheme_params=scheme.params(),
            bit_lengths=bit_lengths,
            payload=b"".join(chunks),
        )

    @classmethod
    def encode_tree(cls, scheme, tree) -> "LabelStore":
        """Encode ``tree`` with ``scheme`` and pack the result."""
        return cls.from_labels(scheme, scheme.encode(tree))

    # -- lookups -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._bit_lengths)

    @property
    def n(self) -> int:
        """Number of stored labels (nodes are ``0..n-1``)."""
        return len(self._bit_lengths)

    def bit_length(self, node: int) -> int:
        """Exact size of one label in bits."""
        self._check_node(node)
        return self._bit_lengths[node]

    def raw(self, node: int) -> memoryview:
        """Zero-copy view of one label's packed bytes."""
        self._check_node(node)
        return self._view[self._offsets[node] : self._offsets[node + 1]]

    def label_bits(self, node: int) -> Bits:
        """One label as a packed :class:`Bits` value.

        The stored bytes become the packed integer directly
        (:meth:`Bits.from_bytes` on a zero-copy ``memoryview`` slice) — no
        ``'0'``/``'1'`` character round-trip happens anywhere on this path.
        """
        self._check_node(node)
        return Bits.from_bytes(self.raw(node), self._bit_lengths[node])

    def label_words(self, nodes):
        """Yield ``(node, packed_value, bit_length)`` for many labels.

        This is the innermost supply loop of batched serving: each label's
        bytes are turned into one big integer (the representation
        :meth:`~repro.encoding.bitio.BitReader.from_word` reads, in
        ``scheme.parse_many``) with no intermediate objects at all.
        """
        view = self._view
        offsets = self._offsets
        lengths = self._bit_lengths
        total = len(lengths)
        from_bytes = int.from_bytes
        for node in nodes:
            if not 0 <= node < total:
                raise StoreError(f"node {node} out of range [0, {total})")
            bits = lengths[node]
            if bits:
                start = offsets[node]
                count = (bits + 7) >> 3
                value = from_bytes(
                    view[start : start + count], "big"
                ) >> ((count << 3) - bits)
            else:
                value = 0
            yield node, value, bits

    def buffers(self):
        """The raw packed representation: ``(view, byte_offsets, bit_lengths)``.

        Label ``i`` occupies ``view[byte_offsets[i]:byte_offsets[i + 1]]``
        and is ``bit_lengths[i]`` bits long.  The native kernel tier reads
        labels straight from these buffers; everything is read-only.  The index sequences are
        ``array('Q')`` values — indexable like lists, and buffer-protocol
        objects the native kernel tier maps without copying.
        """
        return self._view, self._offsets, self._bit_lengths

    def iter_bits(self):
        """All labels in node order."""
        for node in range(self.n):
            yield self.label_bits(node)

    def make_scheme(self):
        """Rebuild the scheme that produced this store (registry lookup)."""
        from repro.core.registry import make_any_scheme

        return make_any_scheme(self.scheme_name, **self.scheme_params)

    def _check_node(self, node: int) -> None:
        if not 0 <= node < len(self._bit_lengths):
            raise StoreError(f"node {node} out of range [0, {len(self._bit_lengths)})")

    # -- space accounting ----------------------------------------------------

    @property
    def total_label_bits(self) -> int:
        """Sum of the exact label sizes (the honest space measure)."""
        return sum(self._bit_lengths)

    @property
    def payload_bytes(self) -> int:
        """Bytes of packed label payload (labels padded to byte boundaries)."""
        return self._view.nbytes

    @property
    def max_label_bits(self) -> int:
        """Largest stored label, in bits (the quantity the paper bounds)."""
        return max(self._bit_lengths, default=0)

    @property
    def mmap_backed(self) -> bool:
        """Whether the payload is served from a memory-mapped file."""
        import mmap

        return isinstance(self._backing, mmap.mmap) or (
            isinstance(self._backing, memoryview)
            and isinstance(self._backing.obj, mmap.mmap)
        )

    @property
    def file_bytes(self) -> int:
        """Size of the serialised store, header and index included.

        Computed arithmetically — no serialisation happens here.
        """
        name = self.scheme_name.encode("utf-8")
        params = json.dumps(self.scheme_params, sort_keys=True).encode("utf-8")
        return (
            len(STORE_MAGIC)
            + len(encode_uvarint(len(name)))
            + len(name)
            + len(encode_uvarint(len(params)))
            + len(params)
            + len(encode_uvarint(self.n))
            + sum(len(encode_uvarint(bits)) for bits in self._bit_lengths)
            + self._view.nbytes
        )

    # -- persistence ---------------------------------------------------------

    def header_bytes(self) -> bytes:
        """The serialised header + varint index (everything before the payload)."""
        name = self.scheme_name.encode("utf-8")
        params = json.dumps(self.scheme_params, sort_keys=True).encode("utf-8")
        parts = [
            STORE_MAGIC,
            encode_uvarint(len(name)),
            name,
            encode_uvarint(len(params)),
            params,
            encode_uvarint(self.n),
        ]
        parts.extend(encode_uvarint(bits) for bits in self._bit_lengths)
        return b"".join(parts)

    def to_bytes(self) -> bytes:
        """Serialise the store (see the format in the package docstring)."""
        return self.header_bytes() + bytes(self._view)

    @classmethod
    def from_bytes(cls, data) -> "LabelStore":
        """Parse a store serialised by :meth:`to_bytes`.

        ``data`` may be any buffer-protocol object; nothing is copied.  The
        header is decoded in place and the payload stays a zero-copy view of
        ``data``, which the returned store keeps alive — the path an
        :class:`~repro.api.IndexCatalog` member slice and an ``mmap``-backed
        file both take.
        """
        view = _as_byte_view(data)
        if bytes(view[: len(STORE_MAGIC)]) != STORE_MAGIC:
            raise StoreError(
                f"not a label store (expected magic {STORE_MAGIC!r})"
            )
        pos = len(STORE_MAGIC)
        try:
            name_len, pos = decode_uvarint(view, pos)
            name = bytes(view[pos : pos + name_len]).decode("utf-8")
            pos += name_len
            params_len, pos = decode_uvarint(view, pos)
            params = json.loads(bytes(view[pos : pos + params_len]).decode("utf-8"))
            pos += params_len
            n, pos = decode_uvarint(view, pos)
            if n > len(view) - pos:
                # every index entry takes at least one byte: refuse before
                # either decoder sizes anything by ``n``
                raise ValueError(
                    f"index claims {n} labels but only {len(view) - pos} bytes follow"
                )
            bit_lengths = None
            if n >= 256:
                # bulk index decode through the native kernel tier when it
                # is loaded; a decline (unavailable, or a stream the C side
                # refuses) falls back to the Python loop, which raises the
                # proper error for genuinely corrupt input
                from repro import kernels

                decoded = kernels.backend().varint_many(view, pos, n)
                if decoded is not None:
                    values, pos = decoded
                    bit_lengths = values
            if bit_lengths is None:
                bit_lengths = []
                for _ in range(n):
                    bits, pos = decode_uvarint(view, pos)
                    bit_lengths.append(bits)
        except ValueError as error:
            raise StoreError(f"corrupt store header: {error}") from error
        return cls(name, params, bit_lengths, view[pos:])

    def save(self, path: str | os.PathLike) -> int:
        """Write the store to ``path``; returns the number of bytes written."""
        header = self.header_bytes()
        with open(path, "wb") as handle:
            handle.write(header)
            handle.write(self._view)
        return len(header) + self._view.nbytes

    @classmethod
    def load(cls, path: str | os.PathLike) -> "LabelStore":
        """Read a store written by :meth:`save` into memory."""
        with open(path, "rb") as handle:
            return cls.from_bytes(handle.read())

    @classmethod
    def open_mmap(cls, path: str | os.PathLike) -> "LabelStore":
        """Open a store file as a read-only memory mapping (zero-copy).

        Only the header and the varint index are parsed into memory; the
        payload stays a view of the mapping, so resident memory is whatever
        the page cache keeps warm — and N processes opening the same file
        (the pre-forked serving fleet) share **one** physical copy.  The
        returned store holds the mapping open for its lifetime.
        """
        import mmap

        with open(path, "rb") as handle:
            try:
                mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            except (ValueError, OSError) as error:
                raise StoreError(f"cannot mmap {os.fspath(path)!r}: {error}") from error
        return cls.from_bytes(memoryview(mapped))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"LabelStore(scheme={self.scheme_name!r}, n={self.n}, "
            f"total_bits={self.total_label_bits})"
        )
