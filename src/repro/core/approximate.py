"""(1+eps)-approximate distance labeling (Section 5.2, Theorem 1.4 upper bound).

The label of ``v`` stores, per significant ancestor ``v_i`` on its root
path, the (1+eps/2)-rounded-up distance ``ceil_{1+eps/2}(d(v, v_i))`` as an
exponent of ``(1 + eps/2)``.  The exponent sequence is non-decreasing, so by
Lemma 2.2 it occupies ``O(log(1/eps) * log n)`` bits — this replaces the
unary encoding of Alstrup et al. whose size is ``Theta(1/eps * log n)``.

Query: if one endpoint is an ancestor of the other the answer is exact
(difference of root distances).  Otherwise the dominating endpoint ``a``
(the one leaving ``NCA(u, v)`` through a light edge, decided by the
collapsed-tree postorder numbers) has the NCA as its significant ancestor at
index ``lightdepth(a) - lightdepth(NCA)``, and

    answer = rd(other) - rd(a) + 2 * ceil_{1+eps/2}(d(a, NCA))

which lies in ``[d(u, v), (1 + eps) d(u, v)]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.base import ApproximateDistanceLabelingScheme, Label
from repro.encoding.alphabetic import common_codeword_prefix
from repro.encoding.bitio import BitReader, BitWriter, Bits
from repro.nca.labels import LightDepthLabeling
from repro.trees.collapsed import CollapsedTree
from repro.trees.heavy_path import HeavyPathDecomposition
from repro.trees.tree import RootedTree


def rounded_exponent(distance: int, base: float) -> int:
    """Smallest ``e`` with ``base ** e >= distance`` (robust against float error)."""
    if distance <= 1:
        return 0
    exponent = max(0, math.ceil(math.log(distance, base)))
    while base ** exponent < distance:
        exponent += 1
    while exponent > 0 and base ** (exponent - 1) >= distance:
        exponent -= 1
    return exponent


@dataclass
class ApproximateLabel(Label):
    """Label of one node for (1+eps)-approximate queries."""

    preorder: int
    subtree_size: int
    root_distance: int
    domination: int
    codewords: list[Bits]
    exponents: list[int]

    @property
    def light_depth(self) -> int:
        """Number of light edges on the root path."""
        return len(self.codewords)

    def is_ancestor_of(self, other: "ApproximateLabel") -> bool:
        """DFS-interval ancestor test."""
        return (
            self.preorder
            <= other.preorder
            < self.preorder + self.subtree_size
        )

    def write(self, writer: BitWriter) -> None:
        """Append the label to ``writer``."""
        writer.write_delta(self.preorder)
        writer.write_delta(self.subtree_size)
        writer.write_delta(self.root_distance)
        writer.write_delta(self.domination)
        writer.write_gamma(len(self.codewords))
        for word in self.codewords:
            writer.write_prefixed_bits(word)
        writer.write_monotone(self.exponents)

    @classmethod
    def read(cls, reader: BitReader) -> "ApproximateLabel":
        """Parse one serialised label (the inverse of :meth:`write`)."""
        delta = reader.read_delta
        preorder = delta()
        subtree_size = delta()
        root_distance = delta()
        domination = delta()
        count = reader.read_gamma()
        codewords = [reader.read_prefixed_bits() for _ in range(count)]
        return cls(
            preorder=preorder,
            subtree_size=subtree_size,
            root_distance=root_distance,
            domination=domination,
            codewords=codewords,
            exponents=reader.read_monotone(),
        )


class ApproximateScheme(ApproximateDistanceLabelingScheme):
    """(1+eps)-approximate distance labels of size O(log(1/eps) log n)."""

    name = "approximate"
    label_type = ApproximateLabel

    def __init__(self, epsilon: float) -> None:
        super().__init__(epsilon)
        #: internal rounding base: (1 + eps/2) so the final answer is (1+eps)
        self.base = 1.0 + epsilon / 2.0

    def encode(self, tree: RootedTree) -> dict[int, ApproximateLabel]:
        collapsed = CollapsedTree(HeavyPathDecomposition(tree))
        light = LightDepthLabeling(tree, collapsed)

        labels: dict[int, ApproximateLabel] = {}
        for node in tree.nodes():
            levels = collapsed.root_path_levels(node)
            distance = tree.root_distance(node)
            # significant ancestors above `node`: the exits of the heavy
            # paths above its own, from the deepest one upwards
            exponents = [
                rounded_exponent(distance - tree.root_distance(exit_node), self.base)
                for _, exit_node in reversed(levels[:-1])
            ]
            labels[node] = ApproximateLabel(
                preorder=tree.preorder_index(node),
                subtree_size=tree.subtree_size(node),
                root_distance=distance,
                domination=collapsed.domination_number(levels[-1][0]),
                codewords=[light.codeword(path) for path, _ in levels[1:]],
                exponents=exponents,
            )
        return labels

    def approximate_distance(
        self, label_u: ApproximateLabel, label_v: ApproximateLabel
    ) -> float:
        if label_u.preorder == label_v.preorder:
            return 0.0
        if label_u.is_ancestor_of(label_v):
            return float(label_v.root_distance - label_u.root_distance)
        if label_v.is_ancestor_of(label_u):
            return float(label_u.root_distance - label_v.root_distance)

        nca_lightdepth = common_codeword_prefix(label_u.codewords, label_v.codewords)
        if label_u.domination < label_v.domination:
            dominating, other = label_u, label_v
        else:
            dominating, other = label_v, label_u
        # the dominating endpoint leaves the NCA through a light edge, so the
        # NCA is its significant ancestor at this index (deepest first)
        index = dominating.light_depth - nca_lightdepth - 1
        if index < 0 or index >= len(dominating.exponents):
            raise ValueError("labels are inconsistent (different encodings?)")
        approximation = self.base ** dominating.exponents[index]
        return (
            other.root_distance - dominating.root_distance + 2.0 * approximation
        )
