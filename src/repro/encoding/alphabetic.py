"""Size-weighted prefix-free codes ("light codes").

Distance labels need an identifier of the root-to-node path in the collapsed
tree whose *total* length is O(log n) bits even though the path may take
Θ(log n) light edges.  The classical trick (used by the O(log n)-bit NCA
labels of Alstrup, Halvorsen and Larsen that the paper invokes as Lemma 2.1)
is to give the ``i``-th light child of a collapsed node a prefix-free
codeword of length about ``log(parent size / child size) + O(1)``.  Summed
along a root-to-node path the sizes telescope, so the concatenation of
codewords is O(log n) bits.

:class:`SizeWeightedCode` assigns such codewords for one node's children;
:func:`path_identifier` concatenates them along a path.
"""

from __future__ import annotations

from repro.encoding.bitio import Bits, BitWriter


class SizeWeightedCode:
    """Prefix-free codewords for children weighted by subtree size.

    Child ``i`` with weight ``w_i`` out of total ``W`` receives a codeword of
    length ``ceil(log2(W / w_i)) + 1`` bits.  The Kraft sum is at most 1/2,
    so a canonical assignment always exists.
    """

    def __init__(self, weights: list[int]) -> None:
        #: ``(value, length)`` of each codeword, in child order
        self.words: list[tuple[int, int]] = []
        if not weights:
            return
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        total = sum(weights)
        lengths = [codeword_length_bound(total, weight) for weight in weights]
        self.words = list(zip(canonical_code_values(lengths), lengths))

    def __len__(self) -> int:
        return len(self.words)

    def codeword(self, index: int) -> Bits:
        """Codeword of the ``index``-th child."""
        return Bits._pack(*self.words[index])

    @property
    def codewords(self) -> list[Bits]:
        """All codewords, in child order."""
        return [Bits._pack(value, length) for value, length in self.words]


def codeword_length_bound(total: int, weight: int) -> int:
    """Length of the codeword of a child of ``weight`` out of ``total``."""
    return max(1, (total + weight - 1) // weight - 1).bit_length() + 1


def canonical_code_values(lengths: list[int]) -> list[int]:
    """Values of the canonical prefix-free code with the given lengths.

    Codewords are assigned in order of increasing length, ties in item
    order: the first is 0 and each next one is the previous value plus
    one, shifted left by the growth in length.  Raises ``ValueError`` if
    the lengths break the Kraft inequality.
    """
    values = [0] * len(lengths)
    code = -1
    previous_length = 0
    for index in sorted(range(len(lengths)), key=lengths.__getitem__):
        length = lengths[index]
        code = (code + 1) << (length - previous_length)
        if code >> length:
            raise ValueError("Kraft inequality violated; weights inconsistent")
        values[index] = code
        previous_length = length
    return values


def path_identifier(codewords: list[Bits]) -> Bits:
    """Concatenate per-level codewords into a single path identifier."""
    writer = BitWriter()
    for word in codewords:
        writer.write_bits(word)
    return writer.getvalue()


def common_codeword_prefix(path_a: list[Bits], path_b: list[Bits]) -> int:
    """Number of leading codewords shared by two per-level codeword lists.

    Because the code used at a given collapsed node is deterministic, two
    nodes share the first ``t`` codewords exactly when their root paths in
    the collapsed tree share the first ``t`` light edges.
    """
    count = 0
    for word_a, word_b in zip(path_a, path_b):
        if word_a != word_b:
            break
        count += 1
    return count
