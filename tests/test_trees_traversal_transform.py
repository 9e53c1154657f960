"""Tests for traversal orders and the Section 2 transform.

The traversal tests check :class:`RootedTree`'s own orders and levels
(children, depth, height, leaves) and the Euler tour behind
:class:`repro.nca.lca_oracle.LCAOracle`.
"""

import random
from collections import deque

import pytest
from hypothesis import given, settings

from repro.generators.random_trees import (
    random_binary_tree,
    random_caterpillar,
    random_prufer_tree,
)
from repro.generators.structured import path_tree, star_tree
from repro.nca.lca_oracle import euler_tour
from repro.oracles.distance_matrix import DistanceMatrix
from repro.oracles.exact_oracle import TreeDistanceOracle
from repro.trees.transform import attach_leaves, binarize, prepare_for_leaf_queries
from repro.trees.tree import RootedTree

from strategies import parent_array_trees, weighted_trees
from tree_extras import random_weighted_tree


class TestTraversals:
    def test_bfs_order(self, any_tree):
        # a breadth-first walk over children() reaches every node once, at
        # non-decreasing depth()
        order = []
        queue = deque([any_tree.root])
        while queue:
            node = queue.popleft()
            order.append(node)
            queue.extend(any_tree.children(node))
        assert sorted(order) == list(any_tree.nodes())
        depths = [any_tree.depth(node) for node in order]
        assert depths == sorted(depths)

    def test_euler_tour_length_and_depths(self, any_tree):
        tour, depths, first = euler_tour(any_tree)
        assert len(tour) == 2 * any_tree.n - 1
        assert len(depths) == len(tour)
        for index, node in enumerate(tour):
            assert depths[index] == any_tree.depth(node)
        for node in any_tree.nodes():
            assert tour[first[node]] == node

    def test_leaves_in_preorder(self, any_tree):
        leaves = any_tree.leaves()
        assert leaves == [v for v in any_tree.preorder() if any_tree.is_leaf(v)]

    def test_nodes_by_depth(self, any_tree):
        groups: dict[int, list[int]] = {}
        for node in any_tree.nodes():
            groups.setdefault(any_tree.depth(node), []).append(node)
        assert sorted(groups) == list(range(any_tree.height() + 1))
        assert groups[0] == [any_tree.root]
        for depth, nodes in groups.items():
            for node in nodes:
                if depth:
                    assert any_tree.depth(any_tree.parent(node)) == depth - 1


class TestAttachLeaves:
    def test_every_node_gets_a_pendant_leaf(self, any_tree):
        result = attach_leaves(any_tree)
        assert result.tree.n == 2 * any_tree.n
        for original, pendant in enumerate(result.query_node):
            assert result.tree.parent(pendant) == original
            assert result.tree.edge_weight(pendant) == 0
            assert result.tree.is_leaf(pendant)

    def test_only_internal_mode(self):
        tree = RootedTree([None, 0, 0])
        result = attach_leaves(tree, only_internal=True)
        assert result.query_node[1] == 1
        assert result.query_node[2] == 2
        assert result.query_node[0] != 0


class TestBinarize:
    def test_degrees_bounded_by_two(self, any_tree):
        result = binarize(any_tree)
        for node in result.tree.nodes():
            assert result.tree.degree(node) <= 2

    def test_star_binarization_preserves_distances(self):
        star = RootedTree([None] + [0] * 9)
        result = binarize(star)
        matrix = DistanceMatrix(result.tree)
        for u in range(1, 10):
            assert matrix.distance(result.query_node[0], result.query_node[u]) == 1
            for v in range(1, 10):
                if u != v:
                    assert matrix.distance(result.query_node[u], result.query_node[v]) == 2

    def test_dummy_chain_layout(self):
        # children 1..4 of the root: 1 stays, 2 hangs off dummy 5, and the
        # last dummy 6 (child of 5) holds 3 and 4
        result = binarize(RootedTree([None, 0, 0, 0, 0]))
        tree = result.tree
        assert [tree.parent(v) for v in tree.nodes()] == [None, 0, 5, 6, 6, 0, 5]
        assert [tree.edge_weight(v) for v in tree.nodes()] == [0, 1, 1, 1, 1, 0, 0]
        assert list(result.query_node) == [0, 1, 2, 3, 4]
        assert list(result.origin) == [0, 1, 2, 3, 4, -1, -1]


def _tree_fields(tree: RootedTree) -> tuple:
    nodes = tree.nodes()
    return (
        [tree.parent(v) for v in nodes],
        [tree.edge_weight(v) for v in nodes],
        [tree.children(v) for v in nodes],
    )


def _assert_equals_composition(tree: RootedTree) -> None:
    """The one-pass transform equals ``binarize(attach_leaves(tree).tree)``."""
    attached = attach_leaves(tree)
    binarized = binarize(attached.tree)
    query_node = [binarized.query_node[leaf] for leaf in attached.query_node]
    origin = [-1] * binarized.tree.n
    for original, leaf in enumerate(query_node):
        origin[leaf] = original

    result = prepare_for_leaf_queries(tree)
    assert _tree_fields(result.tree) == _tree_fields(binarized.tree)
    assert list(result.query_node) == query_node
    assert list(result.origin) == origin
    assert result.query_node.typecode == result.origin.typecode == "i"


TRANSFORM_FAMILIES = {
    "prufer": lambda: random_prufer_tree(300, seed=3),
    "binary": lambda: random_binary_tree(300, seed=5),
    "caterpillar": lambda: random_caterpillar(300, seed=7),
    "star": lambda: star_tree(50),
    "path": lambda: path_tree(120),
    "single": lambda: RootedTree([None]),
    "weighted": lambda: random_weighted_tree(200, 7, seed=9),
}


class TestPrepareForLeafQueries:
    @pytest.mark.parametrize("family", sorted(TRANSFORM_FAMILIES))
    def test_equals_attach_then_binarize(self, family):
        _assert_equals_composition(TRANSFORM_FAMILIES[family]())

    def test_equals_attach_then_binarize_structured(self, any_tree):
        _assert_equals_composition(any_tree)

    @given(weighted_trees(max_nodes=40))
    @settings(max_examples=40, deadline=None)
    def test_equals_attach_then_binarize_weighted(self, tree):
        _assert_equals_composition(tree)

    def test_without_binarization_is_attach_leaves(self, any_tree):
        result = prepare_for_leaf_queries(any_tree, binarize_tree=False)
        attached = attach_leaves(any_tree)
        assert _tree_fields(result.tree) == _tree_fields(attached.tree)
        assert result.query_node == attached.query_node
        assert result.origin == attached.origin

    @given(weighted_trees(max_nodes=20))
    @settings(max_examples=30, deadline=None)
    def test_distances_preserved(self, tree):
        result = prepare_for_leaf_queries(tree)
        original = DistanceMatrix(tree)
        transformed = DistanceMatrix(result.tree)
        rng = random.Random(0)
        nodes = list(tree.nodes())
        for _ in range(30):
            u, v = rng.choice(nodes), rng.choice(nodes)
            assert original.distance(u, v) == transformed.distance(
                result.query_node[u], result.query_node[v]
            )

    @given(parent_array_trees(max_nodes=25))
    @settings(max_examples=30, deadline=None)
    def test_query_nodes_are_leaves(self, tree):
        result = prepare_for_leaf_queries(tree)
        for pendant in result.query_node:
            assert result.tree.is_leaf(pendant)

    def test_without_binarization(self, any_tree):
        result = prepare_for_leaf_queries(any_tree, binarize_tree=False)
        oracle_old = TreeDistanceOracle(any_tree)
        oracle_new = TreeDistanceOracle(result.tree)
        rng = random.Random(1)
        for _ in range(20):
            u = rng.randrange(any_tree.n)
            v = rng.randrange(any_tree.n)
            assert oracle_old.distance(u, v) == oracle_new.distance(
                result.query_node[u], result.query_node[v]
            )
