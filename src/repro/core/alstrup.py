"""The 1/2 log² n heavy-path scheme (Alstrup, Gortz, Halvorsen, Porat [8]).

This is the scheme the paper improves on.  Structure of a label:

* the size-weighted "light code" identifying the node's path in the
  collapsed tree (O(log n) bits, plays the role of the Lemma 2.1 NCA label),
* the weighted root distance of the node,
* the distance array ``D(u)``, stored as one Elias-coded *offset* per light
  edge on the root path: the distance from the head of the i-th heavy path
  to the node where ``u``'s path leaves it (the branch node of the next
  path, or ``u`` itself on its own path), plus the weight of the light
  edge taken.  Because hanging subtrees halve in size along the root path,
  the i-th offset needs about ``log(n / 2^i)`` bits and the array totals
  ``1/2 log² n + O(log n log log n)`` bits.

Codewords, offsets and light weights all come from one root-path walk,
:meth:`~repro.trees.collapsed.CollapsedTree.root_path_levels`.

The decoder finds the deepest common heavy path from the light codes,
reconstructs the two exit depths by prefix-summing the offsets, and applies
the usual ``rd(u) + rd(v) - 2 min(exit_u, exit_v)`` identity.  Unlike the
Section 3.2 scheme, every label contains its full distance array, which is
exactly why this scheme can also answer level-ancestor queries
(Section 3.6) and why it cannot beat 1/2 log² n.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.base import DistanceLabelingScheme, Label
from repro.encoding.alphabetic import common_codeword_prefix
from repro.encoding.bitio import BitReader, BitWriter, Bits
from repro.nca.labels import LightDepthLabeling
from repro.trees.collapsed import CollapsedTree
from repro.trees.heavy_path import HeavyPathDecomposition
from repro.trees.tree import RootedTree


@dataclass
class AlstrupLabel(Label):
    """Variable-width heavy-path label.

    ``offsets[i]`` is the weighted distance from the head of the i-th heavy
    path on the root path to the node where the path towards the labelled
    node leaves it (for the last entry: to the labelled node itself).
    ``light_weights[i]`` is the weight of the light edge taken at level i.
    """

    root_distance: int
    codewords: list[Bits]
    offsets: list[int]
    light_weights: list[int]

    @property
    def light_depth(self) -> int:
        """Number of light edges on the root path."""
        return len(self.codewords)

    def exit_distance(self, level: int) -> int:
        """Weighted root distance of the exit node on the ``level``-th path."""
        total = 0
        for index in range(level):
            total += self.offsets[index] + self.light_weights[index]
        return total + self.offsets[level]

    def write(self, writer: BitWriter) -> None:
        """Append the label to ``writer``."""
        writer.write_delta(self.root_distance)
        writer.write_gamma(len(self.codewords))
        for word in self.codewords:
            writer.write_prefixed_bits(word)
        for offset in self.offsets:
            writer.write_delta(offset)
        for weight in self.light_weights:
            writer.write_gamma(weight)

    @classmethod
    def read(cls, reader: BitReader) -> "AlstrupLabel":
        """Parse one serialised label (the inverse of :meth:`write`)."""
        gamma = reader.read_gamma
        delta = reader.read_delta
        root_distance = delta()
        depth = gamma()
        codewords = [reader.read_prefixed_bits() for _ in range(depth)]
        offsets = [delta() for _ in range(depth + 1)]
        light_weights = [gamma() for _ in range(depth)]
        return cls(root_distance, codewords, offsets, light_weights)

    def distance_array_bits(self) -> int:
        """Bits of the distance array D(u) (the 1/2 log² n core term)."""
        writer = BitWriter()
        for offset in self.offsets:
            writer.write_delta(offset)
        return len(writer)


class AlstrupScheme(DistanceLabelingScheme):
    """The 1/2 log² n + O(log n log log n) scheme of [8]."""

    name = "alstrup"
    label_type = AlstrupLabel

    def encode(self, tree: RootedTree) -> dict[int, AlstrupLabel]:
        collapsed = CollapsedTree(HeavyPathDecomposition(tree))
        light = LightDepthLabeling(tree, collapsed)
        rd = tree.root_distance

        labels: dict[int, AlstrupLabel] = {}
        for node in tree.nodes():
            levels = collapsed.root_path_levels(node)
            below = [path for path, _ in levels[1:]]
            labels[node] = AlstrupLabel(
                root_distance=rd(node),
                codewords=[light.codeword(path) for path in below],
                offsets=[rd(exit_node) - rd(collapsed.head(path)) for path, exit_node in levels],
                light_weights=[collapsed.light_edge_weight(path) for path in below],
            )
        return labels

    def distance(self, label_u: AlstrupLabel, label_v: AlstrupLabel) -> int:
        common = common_codeword_prefix(label_u.codewords, label_v.codewords)
        exit_u = label_u.exit_distance(common)
        exit_v = label_v.exit_distance(common)
        nca_distance = min(exit_u, exit_v)
        return label_u.root_distance + label_v.root_distance - 2 * nca_distance
