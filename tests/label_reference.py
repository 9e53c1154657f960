"""Reference parsers for Alstrup and k-distance labels, on the string reader.

``AlstrupLabel.read`` and ``KDistanceLabel.read`` parse through the field
decoders of :class:`repro.encoding.bitio.BitReader`.  The parsers here
decode the same grammars field by field with the bit-by-bit decoders of
:mod:`bitio_reference` and import nothing from :mod:`repro.encoding`
but the :class:`Bits` value the labels hold, so the differential tests
hold the one decode layer to an independent implementation, value for
value and exception type for exception type.
"""

from __future__ import annotations

import bitio_reference as ref
from repro.core.alstrup import AlstrupLabel
from repro.core.kdistance import KDistanceLabel
from repro.encoding.bitio import Bits


def alstrup_from_bits(bits: Bits) -> AlstrupLabel:
    """Delta root distance, gamma depth, per level a prefixed codeword,
    ``depth + 1`` delta offsets and ``depth`` gamma light weights."""
    reader = ref.BitReader(bits.data)
    root_distance = ref.decode_delta(reader)
    depth = ref.decode_gamma(reader)
    codewords = [Bits(ref.decode_prefixed_bits(reader).data) for _ in range(depth)]
    offsets = [ref.decode_delta(reader) for _ in range(depth + 1)]
    light_weights = [ref.decode_gamma(reader) for _ in range(depth)]
    return AlstrupLabel(root_distance, codewords, offsets, light_weights)


def kdistance_from_bits(bits: Bits) -> KDistanceLabel:
    """Delta preorder, gamma light depth, two flag bits, three monotone
    sequences, delta alpha and, in the compact regime, the gamma position
    and the two Lemma 4.5 tables."""
    reader = ref.BitReader(bits.data)
    pre = ref.decode_delta(reader)
    light_depth = ref.decode_gamma(reader)
    has_extension = reader.read_bit() == 1
    compact = reader.read_bit() == 1
    heights = ref.decode_monotone(reader)
    child_heights = ref.decode_monotone(reader)
    distances = ref.decode_monotone(reader)
    alpha = ref.decode_delta(reader)
    position_mod = 0
    forward: list[int] = []
    backward: list[int] = []
    if compact:
        position_mod = ref.decode_gamma(reader)
        forward = ref.decode_monotone(reader)
        backward = ref.decode_monotone(reader)
    return KDistanceLabel(
        pre=pre,
        light_depth=light_depth,
        heights=heights,
        child_heights=child_heights,
        distances=distances,
        has_extension=has_extension,
        alpha=alpha,
        compact=compact,
        position_mod=position_mod,
        forward=forward,
        backward=backward,
    )
