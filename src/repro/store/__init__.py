"""Packed label stores and the batch query engine (internal layer).

.. note::
   This package is the **internal** serving layer behind the public
   :mod:`repro.api` façade.  Application code should use
   :meth:`repro.api.DistanceIndex.build` / ``open`` / ``query`` instead of
   constructing :class:`LabelStore` and :class:`QueryEngine` directly; the
   classes here remain importable for measurement and research code and
   their file format is the one ``DistanceIndex.save`` writes.

The layer turns the labels a scheme assigns into a single shippable
artefact and answers queries from that artefact alone — the workflow the
paper's model implies (distribute the labels, discard the tree).

:class:`LabelStore`
    every node label packed into one contiguous byte buffer with an offset
    index, zero-copy ``memoryview`` slicing and ``save``/``load`` for
    on-disk persistence.  ``total_label_bits``/``file_bytes`` measure the
    *total* space of an encoding, complementing the per-label maxima the
    paper bounds.

:class:`QueryEngine`
    answers distance queries against a store through the unified
    ``scheme.query`` interface, keeping each decoded label for reuse in a
    bounded FIFO cache — a C arena on native schemes, parsed label objects
    otherwise — and providing ``batch_distance``/``distance_matrix`` paths
    that decode each label once per batch.  Queries go to the kernel tier
    first (:mod:`repro.kernels`); the one matrix implementation,
    ``matrix_into``, is read-only and executor-safe, so the network server
    offloads MATRIX requests through it.

Binary format (version 1)
-------------------------

All integers are LEB128 varints (:func:`repro.encoding.varint.encode_uvarint`),
so every field is byte-aligned and the payload can be sliced without
copying::

    magic       4 bytes   b"RLS1"
    scheme      uvarint length + that many bytes of UTF-8 scheme name
    params      uvarint length + that many bytes of canonical JSON
                (sorted keys) holding the scheme's constructor parameters
    n           uvarint   number of labels; nodes are 0 .. n-1
    bit_lens    n uvarints, the exact bit length of each label
    payload     concatenation of the packed labels, in node order;
                label i occupies ceil(bit_lens[i] / 8) bytes, MSB-first,
                zero-padded at the end of its last byte

Byte offsets into the payload are reconstructed from ``bit_lens`` at load
time, so the index costs one varint per label on disk while lookups stay
O(1) in memory.

mmap safety
-----------

The format is deliberately **mmap-safe**: nothing in it requires
materialising the file in anonymous memory.

* every field is byte-aligned (varints, then whole-byte label slots), so
  labels are plain ``buffer[a:b]`` slices — no bit-level fixups on load;
* the header and index are a strict *prefix*; after one sequential decode
  pass the payload is addressed purely by computed offsets, so only the
  pages a query touches are ever faulted in;
* labels are read-only after encode — a private (copy-on-write) mapping
  never dirties a page, and N forked serving workers share **one**
  physical copy of the payload through the OS page cache.

``LabelStore.open_mmap(path)`` / ``DistanceIndex.open(path, mmap=True)``
serve straight from such a mapping (``LabelStore.from_bytes`` accepts any
buffer object without an upfront copy); :func:`write_store` writes this
exact layout with the payload streamed through a temp file, for trees
whose label sets exceed RAM.  The catalog container
(``repro.api.IndexCatalog``) stores members back-to-back, so each member's
store is itself a zero-copy sub-view of one mapped file.
"""

from repro.store.label_store import STORE_MAGIC, LabelStore, StoreError, write_store
from repro.store.query_engine import QueryEngine

__all__ = ["LabelStore", "QueryEngine", "StoreError", "STORE_MAGIC", "write_store"]
