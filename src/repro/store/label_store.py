"""The packed label store: one buffer, an offset index, save/load.

See the package docstring of :mod:`repro.store` for the binary format.
This module holds the one copy of each job on it: :func:`write_header`
serialises the header and index, :func:`read_header` parses them,
:func:`pack_labels` is the payload loop, and :func:`write_store` encodes a
tree straight to a file.

An encoder hands the payload loop either labels, one at a time, or a
:class:`LabelRuns`: on the native tier the C Freedman encoder writes whole
runs of labels, and as it goes the bit lengths and byte offsets of the
store's index, so the loop only appends (or writes) each run's bytes and
no Python step runs per label.  ``FreedmanScheme.encode`` returns such a
store behind a read-only :class:`StoredLabels` mapping, which
:meth:`LabelStore.from_labels` takes back as it is while it has handed out
no label.

A store never copies the payload it is handed: ``__init__`` wraps any
buffer-protocol object (``bytes``, ``bytearray``, ``memoryview``,
``mmap.mmap``) in a ``memoryview`` and keeps a reference to the backing
object, so :meth:`LabelStore.from_bytes` over a catalog slice and
:meth:`LabelStore.open_mmap` over a mapped file both serve straight from
the original storage.  The offset index is reconstructed at load time into
compact ``array('Q')`` words (8 bytes per label instead of a Python ``int``
object each), which is what keeps a 10⁷-label index affordable: on the
native tier C decodes the varint index straight into those arrays
(``NativeBackend.decode_index``); the python tier's loop over
:func:`~repro.encoding.varint.decode_uvarint` and
:meth:`LabelStore.__init__`'s offsets loop are the reference.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import tempfile
from array import array
from collections.abc import Mapping
from functools import cached_property

from repro import kernels
from repro.encoding.bitio import Bits
from repro.encoding.varint import decode_uvarint, encode_uvarint

#: magic prefix of a serialised store, "Repro Label Store v1"
STORE_MAGIC = b"RLS1"

#: varints joined per write while emitting the bit-length index
_VARINT_BATCH = 1 << 16

#: labels packed between two ``progress`` calls of :func:`pack_labels`
_PROGRESS_EVERY = 1 << 16

#: buffer of the payload temp file and of its copy into the store file
_COPY_CHUNK = 1 << 20


class StoreError(ValueError):
    """Raised when a store file is malformed or inconsistent."""


def _as_byte_view(payload) -> memoryview:
    """A flat read-only byte view of any buffer-protocol object."""
    view = payload if isinstance(payload, memoryview) else memoryview(payload)
    if view.format != "B" or view.ndim != 1:
        view = view.cast("B")
    return view.toreadonly()


class _ByteCounter:
    """A write target that keeps nothing: ``write`` returns the size alone."""

    write = staticmethod(len)


def write_header(handle, name: str, params: dict, bit_lengths) -> int:
    """Write the RLS1 header and varint index to ``handle``; returns the bytes.

    The one serialiser of everything before the payload.  The index is
    written in batches of varints, so a 10⁷-label index never exists as one
    ``bytes`` object; on the native tier C writes each batch
    (``NativeBackend.encode_index``).
    """
    name_bytes = name.encode("utf-8")
    params_bytes = json.dumps(params, sort_keys=True).encode("utf-8")
    written = handle.write(
        b"".join(
            (
                STORE_MAGIC,
                encode_uvarint(len(name_bytes)),
                name_bytes,
                encode_uvarint(len(params_bytes)),
                params_bytes,
                encode_uvarint(len(bit_lengths)),
            )
        )
    )
    encode_index = kernels.backend().encode_index
    for start in range(0, len(bit_lengths), _VARINT_BATCH):
        batch = bit_lengths[start : start + _VARINT_BATCH]
        index = encode_index(batch)
        if index is None:
            index = b"".join(map(encode_uvarint, batch))
        written += handle.write(index)
    return written


def read_header(view) -> tuple[str, dict, int, int]:
    """``(scheme_name, scheme_params, n, pos)`` from the head of a store image.

    The one parser of the header; ``pos`` is the offset of the first
    bit-length varint.  Every field is checked against the end of ``view``,
    and any malformation raises :class:`StoreError`.
    """
    if bytes(view[: len(STORE_MAGIC)]) != STORE_MAGIC:
        raise StoreError(f"not a label store (expected magic {STORE_MAGIC!r})")
    pos = len(STORE_MAGIC)
    try:
        fields = []
        for _ in range(2):
            size, pos = decode_uvarint(view, pos)
            if size > len(view) - pos:
                raise ValueError("header field runs past the end of the buffer")
            fields.append(bytes(view[pos : pos + size]).decode("utf-8"))
            pos += size
        name, params = fields[0], json.loads(fields[1])
        if not isinstance(params, dict):
            raise ValueError(
                f"scheme params must be a JSON object, not {type(params).__name__}"
            )
        n, pos = decode_uvarint(view, pos)
    except ValueError as error:
        raise StoreError(f"corrupt store header: {error}") from error
    return name, params, n, pos


class LabelRuns:
    """Labels an encoder wrote as whole runs, with the store's index.

    What ``FreedmanScheme.encode_stream`` returns on the native tier.
    ``drain(every)`` yields ``(payload, done)`` per run: the run's bytes in
    the store's payload layout, valid until the next item, and the number
    of labels written so far, which stops at each multiple of ``every``.
    As the runs come, the encoder fills ``lengths`` (each label's bit
    length) and ``offsets`` (the ``n + 1`` byte offsets of the labels in
    the whole payload), the two ``array('Q')`` index arrays of a
    :class:`LabelStore`.  Iterating yields the labels one at a time
    instead, each made by ``make(bit_length, payload)``, for a consumer
    that wants label objects.  Either way it is drained once.
    """

    __slots__ = ("lengths", "offsets", "drain", "_make")

    def __init__(self, lengths: array, offsets: array, drain, make) -> None:
        self.lengths = lengths
        self.offsets = offsets
        self.drain = drain
        self._make = make

    def __iter__(self):
        lengths, offsets, make = self.lengths, self.offsets, self._make
        start = 0
        for run, done in self.drain(_PROGRESS_EVERY):
            base = offsets[start]
            for node in range(start, done):
                label = run[offsets[node] - base : offsets[node + 1] - base]
                yield make(lengths[node], bytes(label))
            start = done


class StoredLabels(Mapping):
    """A read-only ``Mapping`` from node to label over a :class:`LabelStore`.

    What ``FreedmanScheme.encode`` returns: the labels are the store's
    bytes, and label ``i`` is made by ``make(bit_length, payload)`` on its
    first access and kept, so a label handed out and then changed stays
    changed.  :meth:`LabelStore.from_labels` returns ``store`` as it is
    while no label has been handed out, and packs label by label after.
    """

    __slots__ = ("store", "_make", "_made")

    def __init__(self, store: "LabelStore", make) -> None:
        self.store = store
        self._make = make
        self._made: dict = {}

    def __len__(self) -> int:
        return self.store.n

    def __iter__(self):
        return iter(range(self.store.n))

    def __contains__(self, node) -> bool:
        return isinstance(node, int) and 0 <= node < self.store.n

    def __getitem__(self, node):
        label = self._made.get(node)
        if label is None:
            if node not in self:
                raise KeyError(node)
            store = self.store
            label = self._made.setdefault(
                node, self._make(store.bit_length(node), bytes(store.raw(node)))
            )
        return label

    @property
    def handed_out(self) -> bool:
        """Whether any label has been made (and may have been changed)."""
        return bool(self._made)


def pack_labels(labels, n: int, write, progress=None) -> array:
    """Serialise ``n`` labels in node order; returns their bit lengths.

    The one payload loop: each label's bytes, from its
    :meth:`~repro.core.base.Label.packed` hook, go to ``write`` as it
    arrives and only its bit length is kept, in an ``array('Q')`` (8 bytes
    per node).  A :class:`LabelRuns` goes to ``write`` run by run instead,
    and its lengths are the encoder's.  ``progress(done, n)`` is called
    every 65536 labels and once at the end.
    """
    if isinstance(labels, LabelRuns):
        if len(labels.lengths) != n:
            raise StoreError(f"packed {len(labels.lengths)} labels for a {n}-node tree")
        for run, done in labels.drain(_PROGRESS_EVERY):
            write(run)
            if progress is not None and done < n and not done % _PROGRESS_EVERY:
                progress(done, n)
        if progress is not None:
            progress(n, n)
        return labels.lengths
    lengths = array("Q")
    append = lengths.append
    for label in labels:
        bits, payload = label.packed()
        append(bits)
        write(payload)
        if progress is not None and not len(lengths) % _PROGRESS_EVERY:
            progress(len(lengths), n)
    if len(lengths) != n:
        raise StoreError(f"packed {len(lengths)} labels for a {n}-node tree")
    if progress is not None:
        progress(n, n)
    return lengths


def write_store(scheme, tree, path: str | os.PathLike, *, progress=None) -> int:
    """Encode ``tree`` with ``scheme`` straight to the store file at ``path``.

    The one file writer.  Labels (or runs of them) stream from
    ``scheme.encode_stream`` through :func:`pack_labels` into a buffered
    temp file beside ``path``; then the header is written and the payload
    appended.  Memory holds the scheme's shared precompute, one label (or
    run) and the index, never the payload, and the file is byte-identical to
    ``LabelStore.encode_tree(scheme, tree).save(path)``.  ``progress`` is
    passed to :func:`pack_labels`.  Returns the number of bytes written.
    """
    path = os.fspath(path)
    with tempfile.TemporaryFile(
        dir=os.path.dirname(path) or ".", buffering=_COPY_CHUNK
    ) as payload:
        lengths = pack_labels(
            scheme.encode_stream(tree), tree.n, payload.write, progress
        )
        payload_bytes = payload.tell()
        payload.seek(0)
        with open(path, "wb") as out:
            written = write_header(out, scheme.name, scheme.params(), lengths)
            shutil.copyfileobj(payload, out, _COPY_CHUNK)
    return written + payload_bytes


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
        self._adopt(scheme_name, scheme_params, lengths, offsets, payload)

    @classmethod
    def _from_index(
        cls, scheme_name: str, scheme_params: dict, lengths: array, offsets: array, payload
    ) -> "LabelStore":
        """A store over index arrays built elsewhere (by C): no loop runs."""
        store = cls.__new__(cls)
        store._adopt(scheme_name, scheme_params, lengths, offsets, payload)
        return store

    def _adopt(self, scheme_name, scheme_params, lengths, offsets, payload) -> None:
        """The one constructor: wrap ``payload`` and take the two index
        arrays, ``n`` bit lengths and ``n + 1`` byte offsets from 0, once
        they agree with each other's size and the payload's."""
        self.scheme_name = scheme_name
        self.scheme_params = dict(scheme_params)
        # the payload is *wrapped*, never copied: the memoryview pins the
        # backing object (bytes, a catalog slice, an mmap) for its lifetime
        self._backing = payload
        self._view = _as_byte_view(payload)
        if len(offsets) != len(lengths) + 1 or offsets[0]:
            raise StoreError(
                f"an index of {len(lengths)} labels needs {len(lengths) + 1} "
                f"offsets from 0, not {len(offsets)}"
            )
        if offsets[-1] != self._view.nbytes:
            raise StoreError(
                f"payload is {self._view.nbytes} bytes but the index "
                f"describes {offsets[-1]}"
            )
        self._bit_lengths = lengths
        self._offsets = offsets

    # -- construction --------------------------------------------------------

    @classmethod
    def from_labels(cls, scheme, labels) -> "LabelStore":
        """Pack the labels ``scheme.encode`` produced for nodes ``0..n-1``.

        A :class:`StoredLabels` of the same scheme spec that has handed out
        no label is its store already, which is returned as it is.
        """
        if type(labels) is StoredLabels and not labels.handed_out:
            store = labels.store
            if store.scheme_name == scheme.name and store.scheme_params == scheme.params():
                return store
        n = len(labels)
        if set(labels) != set(range(n)):
            raise StoreError("labels must be keyed by the nodes 0..n-1")
        return cls._pack(scheme, map(labels.__getitem__, range(n)), n)

    @classmethod
    def encode_tree(cls, scheme, tree) -> "LabelStore":
        """Encode ``tree`` with ``scheme`` and pack the result.

        Labels stream from ``scheme.encode_stream`` into the payload one at
        a time, or run by run; no label dict is built.
        """
        return cls._pack(scheme, scheme.encode_stream(tree), tree.n)

    @classmethod
    def _pack(cls, scheme, labels, n: int) -> "LabelStore":
        payload = bytearray()
        lengths = pack_labels(labels, n, payload.extend)
        if isinstance(labels, LabelRuns):
            return cls._from_index(
                scheme.name, scheme.params(), lengths, labels.offsets, payload
            )
        return cls(scheme.name, scheme.params(), lengths, payload)

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

        try:
            return make_any_scheme(self.scheme_name, **self.scheme_params)
        except (KeyError, ValueError, TypeError) as error:
            message = error.args[0] if error.args else error
            raise StoreError(
                f"store names scheme {self.scheme_name!r} with params "
                f"{self.scheme_params}: {message}"
            ) from error

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

    @cached_property
    def file_bytes(self) -> int:
        """Size of the serialised store, header and index included.

        The header is counted once, through a sink that stores nothing (so
        no serialisation is kept); the store is immutable, so later calls
        reuse the count.
        """
        return (
            write_header(
                _ByteCounter, self.scheme_name, self.scheme_params, self._bit_lengths
            )
            + self._view.nbytes
        )

    # -- persistence ---------------------------------------------------------

    def _write(self, handle) -> int:
        """Header, index and payload to ``handle``; returns the bytes."""
        return write_header(
            handle, self.scheme_name, self.scheme_params, self._bit_lengths
        ) + handle.write(self._view)

    def to_bytes(self) -> bytes:
        """Serialise the store (see the format in the package docstring)."""
        buffer = io.BytesIO()
        self._write(buffer)
        return buffer.getvalue()

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
        name, params, n, pos = read_header(view)
        try:
            if n > len(view) - pos:
                # every index entry takes at least one byte: refuse before
                # either decoder sizes anything by ``n``
                raise ValueError(
                    f"index claims {n} labels but only {len(view) - pos} bytes follow"
                )
            decoded = kernels.backend().decode_index(view, pos, n)
            if decoded is None:
                bit_lengths = []
                for _ in range(n):
                    bits, pos = decode_uvarint(view, pos)
                    bit_lengths.append(bits)
        except ValueError as error:
            raise StoreError(f"corrupt store header: {error}") from error
        if decoded is None:
            return cls(name, params, bit_lengths, view[pos:])
        lengths, offsets, pos = decoded
        return cls._from_index(name, params, lengths, offsets, view[pos:])

    def save(self, path: str | os.PathLike) -> int:
        """Write the store to ``path``; returns the number of bytes written."""
        with open(path, "wb") as handle:
            return self._write(handle)

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
