"""Light-depth labels (the role Lemma 2.1 plays in the distance schemes).

The distance labeling schemes of Section 3 consume an NCA labeling scheme
only through two operations on a *pair* of labels:

* ``lightdepth(u, v)`` — the number of light edges on the path from the root
  to ``NCA(u, v)``, equivalently the depth in the collapsed tree of the
  deepest heavy path shared by the two root paths, and
* the *domination* order of Lemma 3.1 (which endpoint leaves the NCA through
  the shallower / non-exceptional light edge).

:class:`LightDepthLabeling` provides exactly those two operations from
O(log n)-bit labels: each label stores the sequence of size-weighted
prefix-free codewords identifying its path in the collapsed tree (total
length O(log n) because subtree sizes telescope) plus the postorder
(domination) number of its heavy path.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from repro.core.base import Label
from repro.encoding.alphabetic import (
    canonical_code_values,
    codeword_length_bound,
    common_codeword_prefix,
)
from repro.encoding.bitio import BitReader, BitWriter, Bits
from repro.trees.collapsed import CollapsedTree
from repro.trees.heavy_path import HeavyPathDecomposition
from repro.trees.tree import RootedTree


@dataclass
class LightDepthLabel(Label):
    """Per-node label supporting light-depth-of-NCA and domination queries."""

    light_depth: int
    codewords: list[Bits]
    domination: int

    def write(self, writer: BitWriter) -> None:
        """Append the label to ``writer``."""
        writer.write_gamma(self.light_depth)
        for word in self.codewords:
            writer.write_prefixed_bits(word)
        writer.write_delta(self.domination)

    @classmethod
    def read(cls, reader: BitReader) -> "LightDepthLabel":
        """Parse one serialised label (the inverse of :meth:`write`)."""
        light_depth = reader.read_gamma()
        codewords = [reader.read_prefixed_bits() for _ in range(light_depth)]
        return cls(light_depth, codewords, reader.read_delta())


class LightDepthLabeling:
    """Assigns :class:`LightDepthLabel` to every node of a tree."""

    def __init__(
        self,
        tree: RootedTree,
        collapsed: CollapsedTree | None = None,
    ) -> None:
        if collapsed is None:
            collapsed = CollapsedTree(HeavyPathDecomposition(tree))
        self._tree = tree
        self._collapsed = collapsed
        #: every path's light codeword as ``(value, bit length)`` array rows
        #: indexed by collapsed path id — 10 bytes per path instead of a
        #: dict entry and a Bits object each (a codeword is at most 32 bits
        #: long for the under-2^31-node trees :class:`RootedTree` holds)
        self.codeword_value = array("q", bytes(8 * len(collapsed)))
        self.codeword_length = array("h", bytes(2 * len(collapsed)))
        self._build_codes()

    def _build_codes(self) -> None:
        """The light code of every collapsed node's children, from rows.

        Each child path is weighted by its head's subtree size, out of the
        total of its siblings: the nodes of the parent path's head subtree
        that are not on the parent path.  Children, heads and sizes are
        read straight from the collapsed tree's CSR and the tree's rows.
        """
        collapsed = self._collapsed
        size = self._tree._subtree_size
        heads = collapsed._head
        start, data = collapsed._child_start, collapsed._child_data
        path_start = collapsed.decomposition._path_start
        codeword_value, codeword_length = self.codeword_value, self.codeword_length
        for node in range(len(collapsed)):
            first, end = start[node], start[node + 1]
            if first == end:
                continue
            total = size[heads[node]] - (path_start[node + 1] - path_start[node])
            children = data[first:end]
            lengths = [
                codeword_length_bound(total, weight)
                for weight in map(size.__getitem__, map(heads.__getitem__, children))
            ]
            for child, value, length in zip(children, canonical_code_values(lengths), lengths):
                codeword_value[child] = value
                codeword_length[child] = length

    def codeword(self, path: int) -> Bits:
        """Codeword of the light edge into collapsed path ``path``."""
        return Bits._pack(self.codeword_value[path], self.codeword_length[path])

    @property
    def collapsed(self) -> CollapsedTree:
        """The collapsed tree the codes were built over."""
        return self._collapsed

    def label(self, tree_node: int) -> LightDepthLabel:
        """Build the label of one node."""
        levels = self._collapsed.root_path_levels(tree_node)
        return LightDepthLabel(
            light_depth=len(levels) - 1,
            codewords=[self.codeword(path) for path, _ in levels[1:]],
            domination=self._collapsed.domination_number(levels[-1][0]),
        )

    def encode(self) -> dict[int, LightDepthLabel]:
        """Labels for every node of the tree."""
        return {node: self.label(node) for node in self._tree.nodes()}

    # -- pair queries (labels only) ----------------------------------------

    @staticmethod
    def lightdepth_of_nca(label_a: LightDepthLabel, label_b: LightDepthLabel) -> int:
        """``lightdepth(NCA(a, b))`` computed from two labels."""
        return common_codeword_prefix(label_a.codewords, label_b.codewords)

    @staticmethod
    def dominates(label_a: LightDepthLabel, label_b: LightDepthLabel) -> bool:
        """Whether the node of ``label_a`` dominates the node of ``label_b``."""
        return label_a.domination < label_b.domination
