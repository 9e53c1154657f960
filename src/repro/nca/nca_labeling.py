"""An NCA labeling scheme in the style the paper relies on (Lemma 2.1).

Given the labels of ``u`` and ``v`` the scheme returns the *canonical label*
of ``NCA(u, v)`` together with ``lightdepth(u, v)`` and the root distance of
the NCA.  Labels are the hierarchical ``h0.l1.h1 ... lk.hk`` descriptions
used by Section 3.6: per collapsed-tree level, the codeword of the light
child taken and the (weighted) offset along the heavy path of the point
where the path leaves it.

Label size is O(log n) codeword bits plus O(log n) offsets; each offset is
Elias-coded, so the total is O(log² n) bits in the worst case.  (The
O(log n)-bit NCA labels of Alstrup, Halvorsen and Larsen compress the offset
sequence further; the distance schemes in :mod:`repro.core` never need the
full NCA label — they consume only :class:`~repro.nca.labels.LightDepthLabeling` —
so we keep this module simple and honest about its size.)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.base import Label
from repro.encoding.bitio import BitReader, BitWriter, Bits
from repro.nca.labels import LightDepthLabeling
from repro.trees.collapsed import CollapsedTree
from repro.trees.heavy_path import HeavyPathDecomposition
from repro.trees.tree import RootedTree


@dataclass
class NCALabel(Label):
    """Hierarchical description of a node's position.

    ``codewords[i]`` identifies the light child taken at level ``i``;
    ``exit_distances[i]`` is the weighted root distance of the node where the
    path leaves the ``i``-th heavy path (for the last level it is the root
    distance of the node itself).
    """

    codewords: list[Bits]
    exit_distances: list[int]

    @property
    def light_depth(self) -> int:
        """Number of light edges on the root path."""
        return len(self.codewords)

    @property
    def root_distance(self) -> int:
        """Weighted distance from the root."""
        return self.exit_distances[-1]

    def write(self, writer: BitWriter) -> None:
        """Append the label to ``writer``."""
        writer.write_gamma(len(self.codewords))
        for word in self.codewords:
            writer.write_prefixed_bits(word)
        for value in self.exit_distances:
            writer.write_delta(value)

    @classmethod
    def read(cls, reader: BitReader) -> "NCALabel":
        """Parse one serialised label (the inverse of :meth:`write`)."""
        count = reader.read_gamma()
        codewords = [reader.read_prefixed_bits() for _ in range(count)]
        exits = [reader.read_delta() for _ in range(count + 1)]
        return cls(codewords, exits)

    def key(self) -> tuple:
        """Hashable identity of the label (labels are unique per node)."""
        return (
            tuple(self.codewords),
            tuple(self.exit_distances),
        )


class NCALabeling:
    """Encode NCA labels and answer NCA queries from pairs of labels."""

    def __init__(self, tree: RootedTree) -> None:
        self._tree = tree
        self._collapsed = CollapsedTree(HeavyPathDecomposition(tree))
        self._light = LightDepthLabeling(tree, self._collapsed)

    def label(self, node: int) -> NCALabel:
        """Build the label of one node."""
        levels = self._collapsed.root_path_levels(node)
        return NCALabel(
            codewords=[self._light.codeword(path) for path, _ in levels[1:]],
            exit_distances=[self._tree.root_distance(exit_node) for _, exit_node in levels],
        )

    def encode(self) -> dict[int, NCALabel]:
        """Labels for every node."""
        return {node: self.label(node) for node in self._tree.nodes()}

    @staticmethod
    def nca(label_a: NCALabel, label_b: NCALabel) -> tuple[NCALabel, int, int]:
        """NCA query from two labels.

        Returns ``(label of NCA, lightdepth(a, b), root distance of NCA)``.
        """
        common = 0
        for word_a, word_b in zip(label_a.codewords, label_b.codewords):
            if word_a != word_b:
                break
            common += 1
        exit_a = label_a.exit_distances[common]
        exit_b = label_b.exit_distances[common]
        root_distance = min(exit_a, exit_b)
        nca_label = NCALabel(
            codewords=label_a.codewords[:common],
            exit_distances=label_a.exit_distances[:common] + [root_distance],
        )
        return nca_label, common, root_distance

    @staticmethod
    def distance(label_a: NCALabel, label_b: NCALabel) -> int:
        """Exact distance derived from the NCA query (sanity helper)."""
        _, _, root_distance = NCALabeling.nca(label_a, label_b)
        return label_a.root_distance + label_b.root_distance - 2 * root_distance
