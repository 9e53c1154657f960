"""Tree helpers that only the tests use.

Structural checks behind the heavy path property tests, an explicit
subtree embedding that double-checks ``embeds_as_rooted_subtree``, a
builder from networkx graphs, and a random tree with uniform edge
weights.  None of them has a caller in the library, so they live here.
"""

from __future__ import annotations

import math
import random

from repro.generators.random_trees import _rng, random_recursive_tree
from repro.trees.builder import tree_from_edges
from repro.trees.collapsed import CollapsedTree
from repro.trees.heavy_path import HeavyPathDecomposition
from repro.trees.tree import RootedTree


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
    """Light depth is at most log2 n under the paper's decomposition rule."""
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


def embedding_map(small: RootedTree, big: RootedTree) -> dict[int, int] | None:
    """An explicit embedding (small node -> big node), or ``None``.

    Used by tests that want to double-check an embedding rather than just a
    boolean answer.  Exponential in the worst case; intended for small trees.
    """
    small_children = {node: small.children(node) for node in small.nodes()}
    big_children = {node: big.children(node) for node in big.nodes()}

    def try_map(s_node: int, t_node: int) -> dict[int, int] | None:
        s_kids = small_children[s_node]
        if not s_kids:
            return {s_node: t_node}
        t_kids = big_children[t_node]
        if len(t_kids) < len(s_kids):
            return None

        def backtrack(index: int, used: set[int], acc: dict[int, int]) -> dict[int, int] | None:
            if index == len(s_kids):
                return dict(acc)
            for t_kid in t_kids:
                if t_kid in used:
                    continue
                sub = try_map(s_kids[index], t_kid)
                if sub is None:
                    continue
                used.add(t_kid)
                acc.update(sub)
                result = backtrack(index + 1, used, acc)
                if result is not None:
                    return result
                used.remove(t_kid)
                for key in sub:
                    acc.pop(key, None)
            return None

        result = backtrack(0, set(), {s_node: t_node})
        return result

    for t_node in big.nodes():
        mapping = try_map(small.root, t_node)
        if mapping is not None:
            return mapping
    return None


def tree_from_networkx(graph, root=None) -> tuple[RootedTree, dict]:
    """Build a tree from a networkx tree or from a BFS spanning tree.

    Returns the tree plus a mapping from original graph nodes to the integer
    node identifiers used by :class:`RootedTree`.
    """
    import networkx as nx  # local import: optional dependency

    if root is None:
        root = next(iter(graph.nodes))
    if not nx.is_tree(graph):
        graph = nx.bfs_tree(graph, root).to_undirected()
    mapping = {node: index for index, node in enumerate(graph.nodes)}
    edges = []
    for u, v, data in graph.edges(data=True):
        weight = int(data.get("weight", 1))
        edges.append((mapping[u], mapping[v], weight))
    tree = tree_from_edges(len(mapping), edges, root=mapping[root])
    return tree, mapping


def random_weighted_tree(
    n: int,
    max_weight: int,
    seed: int | random.Random | None = 0,
) -> RootedTree:
    """A random recursive tree with uniform edge weights in ``[0, max_weight]``."""
    rng = _rng(seed)
    tree = random_recursive_tree(n, rng)
    weights = [0] + [rng.randint(0, max_weight) for _ in range(n - 1)]
    ordered = [0] * n
    for node in tree.nodes():
        ordered[node] = weights[node] if node != tree.root else 0
    return tree.reweighted(ordered)
