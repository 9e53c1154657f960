"""Adjacency labels (the k = 1 end of the bounded-distance spectrum).

Two constructions:

* :class:`AdjacencyScheme` — the folklore ``2 log n``-bit labels (own
  preorder number plus the parent's): two nodes are adjacent exactly when
  one's identifier is the other's parent identifier.  The optimal
  ``log n + O(1)`` labels of Alstrup, Dahlgaard and Knudsen [6] are out of
  scope (a separate FOCS'15 paper); this scheme provides the same query
  semantics at the k = 1 point of the Table 1 benchmarks.
* ``KDistanceScheme(k=1)`` (see :mod:`repro.core.kdistance`) — the paper's
  own machinery specialised to k = 1, used for cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.base import Label
from repro.encoding.bitio import BitReader, BitWriter, Bits
from repro.trees.tree import RootedTree


@dataclass(frozen=True)
class AdjacencyLabel(Label):
    """Own identifier plus parent identifier (roots repeat their own id)."""

    identifier: int
    parent_identifier: int

    def write(self, writer: BitWriter) -> None:
        """Append the label to ``writer``."""
        writer.write_delta(self.identifier)
        writer.write_delta(self.parent_identifier)

    @classmethod
    def read(cls, reader: BitReader) -> "AdjacencyLabel":
        """Parse one serialised label (the inverse of :meth:`write`)."""
        return cls(reader.read_delta(), reader.read_delta())


class AdjacencyScheme:
    """Folklore parent-pointer adjacency labels."""

    name = "adjacency"

    def encode(self, tree: RootedTree) -> dict[int, AdjacencyLabel]:
        """Assign labels; identifiers are preorder numbers."""
        labels = {}
        for node in tree.nodes():
            parent = tree.parent(node)
            own = tree.preorder_index(node)
            labels[node] = AdjacencyLabel(
                identifier=own,
                parent_identifier=own if parent is None else tree.preorder_index(parent),
            )
        return labels

    @staticmethod
    def adjacent(label_u: AdjacencyLabel, label_v: AdjacencyLabel) -> bool:
        """Whether the two labelled nodes are joined by an edge."""
        if label_u.identifier == label_v.identifier:
            return False
        return (
            label_u.parent_identifier == label_v.identifier
            or label_v.parent_identifier == label_u.identifier
        )

    def bounded_distance(
        self, label_u: AdjacencyLabel, label_v: AdjacencyLabel
    ) -> int | None:
        """1-distance semantics: 0, 1, or ``None`` (further than 1)."""
        if label_u.identifier == label_v.identifier:
            return 0
        return 1 if self.adjacent(label_u, label_v) else None

    def parse(self, bits: Bits) -> AdjacencyLabel:
        """Parse a label from its serialised bits."""
        return AdjacencyLabel.from_bits(bits)
