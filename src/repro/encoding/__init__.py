"""Bit-level encoding substrate used by every labeling scheme.

The paper stores labels as short bit strings built from a handful of
primitives (Section 2, "Encoding integers"):

* self-delimiting integer codes (Elias gamma / delta),
* the monotone-sequence encoder of Lemma 2.2, decoded to a list with
  random access,
* size-weighted prefix-free codes for identifying light children along a
  root-to-node path in the collapsed tree ("light codes").

This package provides those primitives on top of an explicit
:class:`~repro.encoding.bitio.BitWriter` / :class:`~repro.encoding.bitio.BitReader`
pair so that every label in the library is an honest, measurable bit string.
The reader holds the one copy of the decode arithmetic (``read_gamma``,
``read_delta``, ``read_prefixed_bits``, ``read_monotone``) that every
label class's ``read`` parser runs on.
"""

from repro.encoding.bitio import BitReader, BitWriter, Bits
from repro.encoding.elias import (
    encode_delta,
    encode_gamma,
    gamma_length,
    delta_length,
)
from repro.encoding.monotone import MonotoneSequence
from repro.encoding.alphabetic import SizeWeightedCode

__all__ = [
    "BitReader",
    "BitWriter",
    "Bits",
    "encode_gamma",
    "encode_delta",
    "gamma_length",
    "delta_length",
    "MonotoneSequence",
    "SizeWeightedCode",
]
