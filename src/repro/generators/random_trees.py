"""Random tree generators.

All generators take an explicit :class:`random.Random` instance or a seed so
experiments are reproducible.
"""

from __future__ import annotations

import random

from repro.trees.tree import RootedTree


def _rng(seed_or_rng: int | random.Random | None) -> random.Random:
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(seed_or_rng)


def random_prufer_tree(n: int, seed: int | random.Random | None = 0) -> RootedTree:
    """A uniformly random labelled tree on ``n`` nodes (via Prüfer sequences)."""
    rng = _rng(seed)
    if n <= 0:
        raise ValueError("n must be positive")
    if n == 1:
        return RootedTree([None])
    if n == 2:
        return RootedTree([None, 0])
    sequence = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for value in sequence:
        degree[value] += 1

    edges: list[tuple[int, int]] = []
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for value in sequence:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, value))
        degree[value] -= 1
        if degree[value] == 1:
            heapq.heappush(leaves, value)
    # exactly the two unused degree-1 vertices remain in the heap
    remaining = sorted(leaves)
    edges.append((remaining[0], remaining[1]))

    from repro.trees.builder import tree_from_edges

    return tree_from_edges(n, edges, root=0)


def random_binary_tree(n: int, seed: int | random.Random | None = 0) -> RootedTree:
    """A random binary tree grown by attaching nodes to random free slots."""
    rng = _rng(seed)
    if n <= 0:
        raise ValueError("n must be positive")
    parents: list[int | None] = [None]
    slots = [0, 0]  # node 0 has two free child slots
    for node in range(1, n):
        index = rng.randrange(len(slots))
        parent = slots.pop(index)
        parents.append(parent)
        slots.extend([node, node])
    return RootedTree(parents)


def random_recursive_tree(n: int, seed: int | random.Random | None = 0) -> RootedTree:
    """A random recursive tree: node i attaches to a uniform earlier node."""
    rng = _rng(seed)
    if n <= 0:
        raise ValueError("n must be positive")
    parents: list[int | None] = [None]
    for node in range(1, n):
        parents.append(rng.randrange(node))
    return RootedTree(parents)


def random_caterpillar(n: int, seed: int | random.Random | None = 0) -> RootedTree:
    """A caterpillar with a random spine length and random leg placement."""
    rng = _rng(seed)
    if n <= 0:
        raise ValueError("n must be positive")
    if n == 1:
        return RootedTree([None])
    spine_length = max(1, rng.randrange(1, n))
    parents: list[int | None] = [None]
    for node in range(1, spine_length):
        parents.append(node - 1)
    for node in range(spine_length, n):
        parents.append(rng.randrange(spine_length))
    return RootedTree(parents)
