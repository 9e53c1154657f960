"""Folklore baseline: store the whole root path.

The label of ``u`` lists every ancestor of ``u`` together with its weighted
root distance.  The decoder intersects the two ancestor lists and applies
``d(u, v) = rd(u) + rd(v) - 2 rd(NCA)``.

Label size is Θ(depth(u) · log n) bits — linear for paths — which is exactly
why the paper's heavy-path machinery exists.  The scheme is kept as the
simplest possible correctness reference and as the degenerate point of the
label-size benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.base import DistanceLabelingScheme, Label
from repro.encoding.bitio import BitReader, BitWriter
from repro.trees.tree import RootedTree


@dataclass
class NaiveLabel(Label):
    """Ancestor list with root distances, deepest first."""

    ancestors: list[int]
    distances: list[int]

    def write(self, writer: BitWriter) -> None:
        """Append the label to ``writer``."""
        writer.write_gamma(len(self.ancestors))
        for node, distance in zip(self.ancestors, self.distances):
            writer.write_delta(node)
            writer.write_delta(distance)

    @classmethod
    def read(cls, reader: BitReader) -> "NaiveLabel":
        """Parse one serialised label (the inverse of :meth:`write`)."""
        count = reader.read_gamma()
        ancestors, distances = [], []
        for _ in range(count):
            ancestors.append(reader.read_delta())
            distances.append(reader.read_delta())
        return cls(ancestors, distances)


class NaiveListScheme(DistanceLabelingScheme):
    """Store the full ancestor list in every label."""

    name = "naive-list"
    label_type = NaiveLabel

    def encode(self, tree: RootedTree) -> dict[int, NaiveLabel]:
        labels = {}
        for node in tree.nodes():
            path = tree.path_to_root(node)
            labels[node] = NaiveLabel(
                ancestors=path,
                distances=[tree.root_distance(v) for v in path],
            )
        return labels

    def distance(self, label_u: NaiveLabel, label_v: NaiveLabel) -> int:
        ancestors_v = set(label_v.ancestors)
        nca_distance = None
        for node, distance in zip(label_u.ancestors, label_u.distances):
            if node in ancestors_v:
                nca_distance = distance
                break
        if nca_distance is None:
            raise ValueError("labels do not come from the same tree")
        return label_u.distances[0] + label_v.distances[0] - 2 * nca_distance
