"""Deterministic structured tree families.

These exercise the extremes of the heavy-path machinery: paths (one long
heavy path), stars (one node with huge fan-out), caterpillars and combs
(long spine plus pendant nodes), balanced binary trees (logarithmic depth),
brooms and spiders (mixtures).
"""

from __future__ import annotations

from repro.trees.tree import RootedTree


def path_tree(n: int) -> RootedTree:
    """A path on ``n`` nodes rooted at one end."""
    if n <= 0:
        raise ValueError("n must be positive")
    parents: list[int | None] = [None] + [i for i in range(n - 1)]
    return RootedTree(parents)


def star_tree(n: int) -> RootedTree:
    """A star on ``n`` nodes rooted at the centre."""
    if n <= 0:
        raise ValueError("n must be positive")
    parents: list[int | None] = [None] + [0] * (n - 1)
    return RootedTree(parents)


def caterpillar_tree(n: int, legs_per_node: int = 1) -> RootedTree:
    """A caterpillar: a spine where every spine node has pendant legs."""
    if n <= 0:
        raise ValueError("n must be positive")
    parents: list[int | None] = [None]
    spine = [0]
    node = 1
    while node < n:
        # extend the spine, then attach legs to the new spine node
        parents.append(spine[-1])
        spine.append(node)
        node += 1
        for _ in range(legs_per_node):
            if node >= n:
                break
            parents.append(spine[-1])
            node += 1
    return RootedTree(parents)


def comb_tree(n: int) -> RootedTree:
    """A comb: spine of length ~n/2, one pendant tooth per spine node."""
    return caterpillar_tree(n, legs_per_node=1)


def balanced_binary_tree(n: int) -> RootedTree:
    """A complete binary tree on ``n`` nodes (heap-shaped)."""
    if n <= 0:
        raise ValueError("n must be positive")
    parents: list[int | None] = [None] + [(i - 1) // 2 for i in range(1, n)]
    return RootedTree(parents)


def broom_tree(n: int, handle_fraction: float = 0.5) -> RootedTree:
    """A broom: a path (handle) ending in a star (brush)."""
    if n <= 0:
        raise ValueError("n must be positive")
    handle = max(1, int(n * handle_fraction))
    parents: list[int | None] = [None]
    for node in range(1, handle):
        parents.append(node - 1)
    for _ in range(handle, n):
        parents.append(handle - 1)
    return RootedTree(parents)


def spider_tree(n: int, legs: int = 3) -> RootedTree:
    """A spider: ``legs`` paths of (almost) equal length joined at the root."""
    if n <= 0:
        raise ValueError("n must be positive")
    parents: list[int | None] = [None]
    if n == 1:
        return RootedTree(parents)
    legs = max(1, min(legs, n - 1))
    last_on_leg = [0] * legs
    leg = 0
    for node in range(1, n):
        parents.append(last_on_leg[leg])
        last_on_leg[leg] = node
        leg = (leg + 1) % legs
    return RootedTree(parents)
