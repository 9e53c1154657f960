"""Constructors for :class:`~repro.trees.tree.RootedTree`.

Trees can be built from parent arrays or from undirected edge lists.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

from repro.trees.tree import RootedTree, TreeError


def tree_from_parents(
    parents: Sequence[int | None], weights: Sequence[int] | None = None
) -> RootedTree:
    """Build a tree from a parent array (``None``/negative marks the root)."""
    return RootedTree(parents, weights)


def tree_from_edges(
    n: int,
    edges: Iterable[tuple[int, int] | tuple[int, int, int]],
    root: int = 0,
) -> RootedTree:
    """Build a tree from an undirected edge list by rooting it at ``root``.

    Each edge is ``(u, v)`` or ``(u, v, weight)``.
    """
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    count = 0
    for edge in edges:
        if len(edge) == 2:
            u, v = edge  # type: ignore[misc]
            w = 1
        else:
            u, v, w = edge  # type: ignore[misc]
        if not (0 <= u < n and 0 <= v < n):
            raise TreeError(f"edge ({u}, {v}) out of range for n={n}")
        adjacency[u].append((v, w))
        adjacency[v].append((u, w))
        count += 1
    if count != n - 1:
        raise TreeError(f"a tree on {n} nodes needs {n - 1} edges, got {count}")

    parents: list[int | None] = [None] * n
    weights = [0] * n
    seen = [False] * n
    seen[root] = True
    queue = deque([root])
    visited = 1
    while queue:
        node = queue.popleft()
        for neighbour, weight in adjacency[node]:
            if not seen[neighbour]:
                seen[neighbour] = True
                parents[neighbour] = node
                weights[neighbour] = weight
                visited += 1
                queue.append(neighbour)
    if visited != n:
        raise TreeError("edge list is disconnected")
    return RootedTree(parents, weights)
