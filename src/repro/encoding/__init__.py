"""Bit-level encoding substrate used by every labeling scheme.

The paper stores labels as short bit strings built from a handful of
primitives (Section 2, "Encoding integers"):

* self-delimiting integer codes (Elias gamma / delta),
* the monotone-sequence encoder of Lemma 2.2, decoded to a plain list,
* size-weighted prefix-free codes for identifying light children along a
  root-to-node path in the collapsed tree ("light codes").

There is one writer and one reader.  :class:`~repro.encoding.bitio.BitWriter`
holds the one copy of the encode arithmetic (``write_gamma``,
``write_delta``, ``write_prefixed_bits``, ``write_monotone``) and
:class:`~repro.encoding.bitio.BitReader` the one copy of the decode
arithmetic (``read_gamma``, ``read_delta``, ``read_prefixed_bits``,
``read_monotone``); every label class's ``write``/``read`` pair runs on
them, so every label in the library is an honest, measurable bit string.
"""

from repro.encoding.bitio import BitReader, BitWriter, Bits
from repro.encoding.alphabetic import SizeWeightedCode

__all__ = [
    "BitReader",
    "BitWriter",
    "Bits",
    "SizeWeightedCode",
]
