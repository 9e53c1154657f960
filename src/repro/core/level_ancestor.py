"""Level-ancestor / parent labeling (Section 3.6).

The paper proves (Theorem 1.2) that level-ancestor labels cannot be shorter
than ~1/2 log² n bits, and notes that the Alstrup et al. distance labels can
be turned into a level-ancestor scheme: every label stores, per heavy path
on its root path, how far along the path to walk and which light edge to
take next, so the parent's label is obtained by decrementing the last offset
or dropping the last (codeword, offset) pair.

:class:`LevelAncestorScheme` implements exactly that hierarchical label.
Labels are distinct by construction (the hierarchical description identifies
the node), parent queries use a *single* label, and ``level_ancestor`` walks
up by repeated parent queries.  The universal-tree construction of
Lemma 3.6 (:mod:`repro.universal`) consumes this scheme.

The scheme is defined for unweighted (unit edge weight) trees, matching the
paper's setting for level ancestors.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.base import Label
from repro.encoding.bitio import BitReader, BitWriter, Bits
from repro.nca.labels import LightDepthLabeling
from repro.trees.collapsed import CollapsedTree
from repro.trees.heavy_path import HeavyPathDecomposition
from repro.trees.tree import RootedTree


@dataclass(frozen=True)
class LevelAncestorLabel(Label):
    """Hierarchical position description: offsets along heavy paths and
    codewords of the light edges taken between them.

    Codewords are kept as packed :class:`Bits` values (hashable, so labels
    remain usable as dictionary keys through :meth:`key`); no character
    strings are materialised on the encode/parse paths.
    """

    depth: int
    codewords: tuple[Bits, ...]
    offsets: tuple[int, ...]

    @property
    def light_depth(self) -> int:
        """Number of light edges on the root path."""
        return len(self.codewords)

    def is_root(self) -> bool:
        """Whether this label describes the root."""
        return self.depth == 0

    def key(self) -> tuple:
        """Hashable identity (labels are unique per node)."""
        return (self.codewords, self.offsets)

    def write(self, writer: BitWriter) -> None:
        """Append the label to ``writer``."""
        writer.write_delta(self.depth)
        writer.write_gamma(len(self.codewords))
        for word in self.codewords:
            writer.write_prefixed_bits(word)
        for offset in self.offsets:
            writer.write_delta(offset)

    @classmethod
    def read(cls, reader: BitReader) -> "LevelAncestorLabel":
        """Parse one serialised label (the inverse of :meth:`write`)."""
        depth = reader.read_delta()
        count = reader.read_gamma()
        codewords = tuple(reader.read_prefixed_bits() for _ in range(count))
        offsets = tuple(reader.read_delta() for _ in range(count + 1))
        return cls(depth, codewords, offsets)


class LevelAncestorScheme:
    """Parent / level-ancestor labels in the Section 3.6 style."""

    name = "level-ancestor"

    def encode(self, tree: RootedTree) -> dict[int, LevelAncestorLabel]:
        """Assign a hierarchical label to every node of a unit-weight tree."""
        if not tree.is_unit_weighted():
            raise ValueError("LevelAncestorScheme expects a unit-weight tree")
        collapsed = CollapsedTree(HeavyPathDecomposition(tree))
        light = LightDepthLabeling(tree, collapsed)
        depth = tree.depth

        labels: dict[int, LevelAncestorLabel] = {}
        for node in tree.nodes():
            levels = collapsed.root_path_levels(node)
            labels[node] = LevelAncestorLabel(
                depth=depth(node),
                codewords=tuple(light.codeword(path) for path, _ in levels[1:]),
                offsets=tuple(
                    depth(exit_node) - depth(collapsed.head(path)) for path, exit_node in levels
                ),
            )
        return labels

    # -- queries (labels only) ----------------------------------------------

    @staticmethod
    def parent(label: LevelAncestorLabel) -> LevelAncestorLabel | None:
        """Label of the parent, or ``None`` for the root."""
        if label.is_root():
            return None
        offsets = list(label.offsets)
        if offsets[-1] > 0:
            offsets[-1] -= 1
            return LevelAncestorLabel(label.depth - 1, label.codewords, tuple(offsets))
        # the node is the head of its heavy path: drop the last level; the
        # parent is the branch node on the previous path, whose offset is
        # already the last remaining entry
        return LevelAncestorLabel(
            label.depth - 1, label.codewords[:-1], tuple(offsets[:-1])
        )

    @classmethod
    def level_ancestor(
        cls, label: LevelAncestorLabel, steps: int
    ) -> LevelAncestorLabel | None:
        """Label of the ancestor ``steps`` edges above, or ``None`` if absent."""
        current: LevelAncestorLabel | None = label
        for _ in range(steps):
            if current is None:
                return None
            current = cls.parent(current)
        return current

    @staticmethod
    def ancestor_at_depth(
        label: LevelAncestorLabel, depth: int
    ) -> LevelAncestorLabel | None:
        """Label of the ancestor at absolute ``depth`` (None if below the node)."""
        if depth > label.depth:
            return None
        return LevelAncestorScheme.level_ancestor(label, label.depth - depth)

    def parse(self, bits: Bits) -> LevelAncestorLabel:
        """Parse a label from its serialised bits."""
        return LevelAncestorLabel.from_bits(bits)

    @staticmethod
    def max_label_bits(labels: dict[int, LevelAncestorLabel]) -> int:
        """Maximum label size in bits."""
        return max(label.bit_length() for label in labels.values())
