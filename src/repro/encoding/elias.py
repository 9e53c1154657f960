"""Elias gamma and delta codes (Elias 1975).

The paper uses Elias delta codes to make individual label fields
self-delimiting ("Encoding integers", Section 2): a non-negative integer
``x`` is stored using ``log x + O(log log x)`` bits, and the end of the code
is detectable without knowing its length in advance.

Both codes here encode *non-negative* integers by internally shifting by one
(classic Elias codes are defined for positive integers only).  Decoding is
:class:`~repro.encoding.bitio.BitReader`'s: ``read_gamma`` and
``read_delta``.
"""

from __future__ import annotations

from repro.encoding.bitio import BitWriter


def encode_gamma(writer: BitWriter, value: int) -> None:
    """Append the Elias gamma code of ``value`` (``value >= 0``)."""
    if value < 0:
        raise ValueError("Elias gamma encodes non-negative integers only")
    shifted = value + 1
    width = shifted.bit_length()
    # `shifted` has exactly `width` significant bits, so writing it with
    # width `2*width - 1` emits the `width - 1` leading zeros of the unary
    # prefix and the binary part in a single shift.
    writer.write_int(shifted, 2 * width - 1)


def gamma_length(value: int) -> int:
    """Number of bits :func:`encode_gamma` uses for ``value``."""
    if value < 0:
        raise ValueError("Elias gamma encodes non-negative integers only")
    return 2 * (value + 1).bit_length() - 1


def encode_delta(writer: BitWriter, value: int) -> None:
    """Append the Elias delta code of ``value`` (``value >= 0``)."""
    if value < 0:
        raise ValueError("Elias delta encodes non-negative integers only")
    shifted = value + 1
    width = shifted.bit_length()
    encode_gamma(writer, width - 1)
    if width > 1:
        writer.write_int(shifted - (1 << (width - 1)), width - 1)


def delta_length(value: int) -> int:
    """Number of bits :func:`encode_delta` uses for ``value``."""
    if value < 0:
        raise ValueError("Elias delta encodes non-negative integers only")
    width = (value + 1).bit_length()
    return gamma_length(width - 1) + (width - 1)
