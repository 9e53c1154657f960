"""Structural validation helpers.

These checks back the property tests: heavy paths must partition the tree,
light depths are bounded by ``log2 n``, the collapsed tree's height is
bounded by ``log2 n``, and heavy paths follow the half-size rule.
"""

from __future__ import annotations

import math

from repro.trees.collapsed import CollapsedTree
from repro.trees.heavy_path import HeavyPathDecomposition


def check_partition_into_paths(decomposition: HeavyPathDecomposition) -> None:
    """Every node lies on exactly one heavy path and paths are downward chains."""
    tree = decomposition.tree
    seen = [0] * tree.n
    for path_id, path in enumerate(decomposition.paths()):
        for index, node in enumerate(path):
            seen[node] += 1
            if index > 0:
                parent = tree.parent(node)
                if parent != path[index - 1]:
                    raise AssertionError(
                        f"path {path_id} is not a downward chain at node {node}"
                    )
    if any(count != 1 for count in seen):
        raise AssertionError("heavy paths do not partition the node set")


def check_light_depth_bound(decomposition: HeavyPathDecomposition) -> None:
    """Light depth is at most log2 n for the paper's decomposition variant."""
    n = decomposition.tree.n
    bound = max(1, int(math.floor(math.log2(n)))) if n > 1 else 0
    worst = decomposition.max_light_depth()
    if worst > bound:
        raise AssertionError(f"light depth {worst} exceeds log2(n) = {bound}")


def check_collapsed_height_bound(collapsed: CollapsedTree) -> None:
    """Collapsed tree height is at most log2 n."""
    n = collapsed.tree.n
    bound = max(1, int(math.floor(math.log2(n)))) if n > 1 else 0
    height = collapsed.height()
    if height > bound:
        raise AssertionError(f"collapsed height {height} exceeds log2(n) = {bound}")


def check_heavy_path_rule(decomposition: HeavyPathDecomposition) -> None:
    """The paper's rule: each path step keeps at least half the decomposition size."""
    if decomposition.variant != "paper":
        return
    tree = decomposition.tree
    for path in decomposition.paths():
        decomposition_size = tree.subtree_size(path[0])
        for node in path[1:]:
            if tree.subtree_size(node) * 2 < decomposition_size:
                raise AssertionError(
                    "heavy path descends into a subtree smaller than |T|/2"
                )
        tail = path[-1]
        for child in tree.children(tail):
            if tree.subtree_size(child) * 2 >= decomposition_size:
                raise AssertionError(
                    "heavy path stopped although a half-size child exists"
                )
