"""Tests for the RootedTree data structure and its builders."""

import pytest
from hypothesis import given

from repro.trees.builder import tree_from_edges, tree_from_parents
from repro.trees.tree import RootedTree, TreeError

from strategies import parent_array_trees, weighted_trees


class TestConstruction:
    def test_single_node(self):
        tree = RootedTree([None])
        assert tree.n == 1
        assert tree.root == 0
        assert tree.is_leaf(0)
        assert tree.leaves() == [0]
        assert tree.height() == 0

    def test_rejects_empty(self):
        with pytest.raises(TreeError):
            RootedTree([])

    def test_rejects_multiple_roots(self):
        with pytest.raises(TreeError):
            RootedTree([None, None])

    def test_rejects_cycle(self):
        # 1 -> 2 -> 1 cycle beside root 0
        with pytest.raises(TreeError):
            RootedTree([None, 2, 1])

    def test_rejects_out_of_range_parent(self):
        with pytest.raises(TreeError):
            RootedTree([None, 7])

    def test_rejects_negative_weights(self):
        with pytest.raises(TreeError):
            RootedTree([None, 0], [0, -1])

    def test_default_weights_are_unit(self):
        tree = RootedTree([None, 0, 0, 1])
        assert tree.is_unit_weighted()
        assert tree.root_distance(3) == 2

    def test_weighted_distances(self):
        tree = RootedTree([None, 0, 1], [0, 5, 0])
        assert tree.root_distance(2) == 5
        assert not tree.is_unit_weighted()


class TestAccessors:
    def test_children_and_parent(self):
        tree = RootedTree([None, 0, 0, 1, 1])
        assert tree.children(0) == [1, 2]
        assert tree.children(1) == [3, 4]
        assert tree.parent(3) == 1
        assert tree.parent(0) is None
        assert tree.degree(0) == 2
        assert tree.subtree_size(1) == 3
        assert tree.subtree_size(0) == 5

    def test_preorder_postorder_consistency(self):
        tree = RootedTree([None, 0, 0, 1, 1, 2])
        pre = tree.preorder()
        post = tree.postorder()
        assert sorted(pre) == sorted(post) == list(range(6))
        assert pre[0] == 0
        assert post[-1] == 0
        for node in tree.nodes():
            assert pre[tree.preorder_index(node)] == node
            assert post[tree.postorder_index(node)] == node

    def test_is_ancestor(self):
        tree = RootedTree([None, 0, 1, 1, 0])
        assert tree.is_ancestor(0, 3)
        assert tree.is_ancestor(1, 2)
        assert tree.is_ancestor(2, 2)
        assert not tree.is_ancestor(2, 1)
        assert not tree.is_ancestor(4, 3)

    def test_path_to_root(self):
        tree = RootedTree([None, 0, 1, 2])
        assert tree.path_to_root(3) == [3, 2, 1, 0]
        assert tree.path_to_root(0) == [0]

    def test_edges_iteration(self):
        tree = RootedTree([None, 0, 0], [0, 2, 3])
        assert sorted(tree.edges()) == [(0, 1, 2), (0, 2, 3)]

    def test_with_child_order(self):
        tree = RootedTree([None, 0, 0])
        reordered = tree.with_child_order({0: [2, 1]})
        assert reordered.children(0) == [2, 1]
        assert reordered.preorder() == [0, 2, 1]
        with pytest.raises(TreeError):
            tree.with_child_order({0: [1, 1]})

    def test_reweighted(self):
        tree = RootedTree([None, 0])
        heavier = tree.reweighted([0, 10])
        assert heavier.root_distance(1) == 10
        assert tree.root_distance(1) == 1


class TestBuilders:
    def test_from_parents(self):
        tree = tree_from_parents([None, 0, 1])
        assert tree.n == 3

    def test_from_edges(self):
        tree = tree_from_edges(4, [(0, 1), (1, 2), (1, 3)])
        assert tree.parent(2) == 1
        assert tree.parent(1) == 0

    def test_from_edges_weighted(self):
        tree = tree_from_edges(3, [(0, 1, 4), (1, 2, 5)])
        assert tree.root_distance(2) == 9

    def test_from_edges_rejects_wrong_count(self):
        with pytest.raises(TreeError):
            tree_from_edges(3, [(0, 1)])

    def test_from_edges_rejects_disconnected(self):
        with pytest.raises(TreeError):
            tree_from_edges(4, [(0, 1), (2, 3), (0, 1)])

    def test_from_networkx_spanning_tree(self):
        networkx = pytest.importorskip("networkx")
        graph = networkx.cycle_graph(6)
        from tree_extras import tree_from_networkx

        tree, mapping = tree_from_networkx(graph, root=0)
        assert tree.n == 6
        assert len(mapping) == 6


class TestProperties:
    @given(parent_array_trees())
    def test_subtree_sizes_sum(self, tree):
        assert tree.subtree_size(tree.root) == tree.n
        for node in tree.nodes():
            assert tree.subtree_size(node) == 1 + sum(
                tree.subtree_size(child) for child in tree.children(node)
            )

    @given(parent_array_trees())
    def test_preorder_interval_characterises_ancestry(self, tree):
        for node in tree.nodes():
            for other in tree.nodes():
                expected = other in tree.path_to_root(node) or node == other
                in_path = tree.is_ancestor(other, node)
                assert in_path == (other in tree.path_to_root(node))
                _ = expected

    @given(weighted_trees())
    def test_root_distances_accumulate(self, tree):
        for node in tree.nodes():
            parent = tree.parent(node)
            if parent is None:
                assert tree.root_distance(node) == 0
            else:
                assert tree.root_distance(node) == (
                    tree.root_distance(parent) + tree.edge_weight(node)
                )
