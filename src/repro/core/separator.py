"""Separator (centroid-decomposition) distance labels.

This is the classical O(log² n)-bit construction in the spirit of Peleg's
proximity-preserving labels [26]: recursively split the tree at a centroid,
and let every node remember, for each centroid on its centroid-tree root
path, the centroid's identity and its distance to it.  For any two nodes the
highest centroid separating them lies on their path, so

    d(u, v) = min over common centroids c of d(u, c) + d(c, v).

The scheme is independent of the heavy-path framework, which makes it a
useful second baseline: it shares no code path with the Section 3 schemes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.core.base import DistanceLabelingScheme, Label
from repro.encoding.bitio import BitReader, BitWriter
from repro.trees.tree import RootedTree


@dataclass
class SeparatorLabel(Label):
    """(centroid, distance-to-centroid) pairs from the top level down."""

    centroids: list[int]
    distances: list[int]

    def write(self, writer: BitWriter) -> None:
        """Append the label to ``writer``."""
        writer.write_gamma(len(self.centroids))
        for centroid, distance in zip(self.centroids, self.distances):
            writer.write_delta(centroid)
            writer.write_delta(distance)

    @classmethod
    def read(cls, reader: BitReader) -> "SeparatorLabel":
        """Parse one serialised label (the inverse of :meth:`write`)."""
        count = reader.read_gamma()
        centroids, distances = [], []
        for _ in range(count):
            centroids.append(reader.read_delta())
            distances.append(reader.read_delta())
        return cls(centroids, distances)


class SeparatorScheme(DistanceLabelingScheme):
    """Centroid-decomposition labels with O(log n) levels."""

    name = "separator"
    label_type = SeparatorLabel

    def encode(self, tree: RootedTree) -> dict[int, SeparatorLabel]:
        adjacency = self._adjacency(tree)
        removed = [False] * tree.n
        entries: dict[int, list[tuple[int, int]]] = {v: [] for v in tree.nodes()}

        pending = deque([tree.root])
        while pending:
            component_root = pending.popleft()
            if removed[component_root]:
                continue
            centroid = self._find_centroid(component_root, adjacency, removed)
            self._record_distances(centroid, adjacency, removed, entries)
            removed[centroid] = True
            for neighbour, _ in adjacency[centroid]:
                if not removed[neighbour]:
                    pending.append(neighbour)

        return {
            node: SeparatorLabel(
                centroids=[c for c, _ in entries[node]],
                distances=[d for _, d in entries[node]],
            )
            for node in tree.nodes()
        }

    @staticmethod
    def _adjacency(tree: RootedTree) -> list[list[tuple[int, int]]]:
        adjacency: list[list[tuple[int, int]]] = [[] for _ in range(tree.n)]
        for parent, child, weight in tree.edges():
            adjacency[parent].append((child, weight))
            adjacency[child].append((parent, weight))
        return adjacency

    @staticmethod
    def _component(
        root: int,
        adjacency: list[list[tuple[int, int]]],
        removed: list[bool],
    ) -> tuple[list[int], dict[int, int | None]]:
        """Nodes of the current component in DFS order plus a parent map."""
        parent: dict[int, int | None] = {root: None}
        order: list[int] = []
        stack = [root]
        while stack:
            node = stack.pop()
            order.append(node)
            for neighbour, _ in adjacency[node]:
                if removed[neighbour] or neighbour in parent:
                    continue
                parent[neighbour] = node
                stack.append(neighbour)
        return order, parent

    @classmethod
    def _find_centroid(
        cls,
        root: int,
        adjacency: list[list[tuple[int, int]]],
        removed: list[bool],
    ) -> int:
        order, parent = cls._component(root, adjacency, removed)
        size = {node: 1 for node in order}
        for node in reversed(order):
            above = parent[node]
            if above is not None:
                size[above] += size[node]
        total = len(order)

        centroid = root
        while True:
            heavy_child = None
            for neighbour, _ in adjacency[centroid]:
                if removed[neighbour] or parent.get(neighbour) != centroid:
                    continue
                if size[neighbour] * 2 > total:
                    heavy_child = neighbour
                    break
            if heavy_child is None:
                return centroid
            centroid = heavy_child

    @staticmethod
    def _record_distances(
        centroid: int,
        adjacency: list[list[tuple[int, int]]],
        removed: list[bool],
        entries: dict[int, list[tuple[int, int]]],
    ) -> None:
        distances = {centroid: 0}
        queue = deque([centroid])
        while queue:
            node = queue.popleft()
            entries[node].append((centroid, distances[node]))
            for neighbour, weight in adjacency[node]:
                if removed[neighbour] or neighbour in distances:
                    continue
                distances[neighbour] = distances[node] + weight
                queue.append(neighbour)

    def distance(self, label_u: SeparatorLabel, label_v: SeparatorLabel) -> int:
        distances_v = {c: d for c, d in zip(label_v.centroids, label_v.distances)}
        best = None
        for centroid, distance in zip(label_u.centroids, label_u.distances):
            other = distances_v.get(centroid)
            if other is None:
                continue
            candidate = distance + other
            if best is None or candidate < best:
                best = candidate
        if best is None:
            raise ValueError("labels do not come from the same tree")
        return best
