"""Euler-tour + sparse-table LCA oracle.

O(n log n) preprocessing, O(1) queries.  This is a substrate (full tree
access), not a labeling scheme; the labeling schemes use it while *encoding*
and the tests use it as ground truth.
"""

from __future__ import annotations

from repro.trees.tree import RootedTree


def euler_tour(tree: RootedTree) -> tuple[list[int], list[int], list[int]]:
    """Euler tour of the tree.

    Returns ``(tour, depths, first_occurrence)`` where ``tour`` lists nodes in
    the order they are visited (each internal node appears once per child
    visit plus once), ``depths`` gives the depth of each tour entry and
    ``first_occurrence[v]`` is the index of the first appearance of ``v``.
    This is the classical input to the sparse-table LCA oracle.  The walk is
    iterative, so deep trees never hit CPython's recursion limit.
    """
    tour: list[int] = []
    depths: list[int] = []
    first: list[int] = [-1] * tree.n

    stack: list[tuple[int, int, int]] = [(tree.root, 0, 0)]
    # each stack frame: (node, depth, index of next child to expand)
    while stack:
        node, depth, child_index = stack.pop()
        tour.append(node)
        depths.append(depth)
        if first[node] == -1:
            first[node] = len(tour) - 1
        children = tree.children(node)
        if child_index < len(children):
            stack.append((node, depth, child_index + 1))
            stack.append((children[child_index], depth + 1, 0))
    return tour, depths, first


class LCAOracle:
    """Constant-time lowest-common-ancestor queries after preprocessing."""

    def __init__(self, tree: RootedTree) -> None:
        self._tree = tree
        tour, depths, first = euler_tour(tree)
        self._tour = tour
        self._first = first
        self._build_sparse_table(depths)

    def _build_sparse_table(self, depths: list[int]) -> None:
        m = len(depths)
        # table[j][i] = index (into the tour) of the minimum-depth entry in
        # the window [i, i + 2^j)
        table: list[list[int]] = [list(range(m))]
        j = 1
        while (1 << j) <= m:
            previous = table[j - 1]
            width = 1 << (j - 1)
            current = []
            for i in range(m - (1 << j) + 1):
                left = previous[i]
                right = previous[i + width]
                current.append(left if depths[left] <= depths[right] else right)
            table.append(current)
            j += 1
        self._table = table
        self._depths = depths
        self._log = [0] * (m + 1)
        for i in range(2, m + 1):
            self._log[i] = self._log[i // 2] + 1

    def query(self, u: int, v: int) -> int:
        """Lowest common ancestor of ``u`` and ``v``."""
        left = self._first[u]
        right = self._first[v]
        if left > right:
            left, right = right, left
        length = right - left + 1
        k = self._log[length]
        a = self._table[k][left]
        b = self._table[k][right - (1 << k) + 1]
        best = a if self._depths[a] <= self._depths[b] else b
        return self._tour[best]

    def distance(self, u: int, v: int) -> int:
        """Weighted distance computed through the LCA."""
        ancestor = self.query(u, v)
        return (
            self._tree.root_distance(u)
            + self._tree.root_distance(v)
            - 2 * self._tree.root_distance(ancestor)
        )
