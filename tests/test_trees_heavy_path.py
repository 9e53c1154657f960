"""Tests for the heavy path decomposition and the collapsed tree."""

import math

from hypothesis import given, settings

from repro.trees.collapsed import CollapsedTree
from repro.trees.heavy_path import HeavyPathDecomposition
from repro.trees.tree import RootedTree
from tree_extras import (
    check_collapsed_height_bound,
    check_heavy_path_rule,
    check_light_depth_bound,
    check_partition_into_paths,
)
from tree_reference import branch_node, collapsed_node_of, light_edges_on_root_path

from strategies import parent_array_trees


class TestHeavyPathDecomposition:
    def test_path_graph_paper_variant_halves(self):
        """The paper's rule stops a path once the remaining subtree is < |T|/2,
        so a path graph is split into O(log n) heavy paths, all chained by
        light edges; the light depth stays logarithmic."""
        tree = RootedTree([None] + list(range(9)))
        decomposition = HeavyPathDecomposition(tree)
        assert 1 < decomposition.path_count() <= 5
        assert decomposition.max_light_depth() <= 4
        # the root path keeps at least half the nodes
        assert len(decomposition.path_nodes(decomposition.path_of(0))) >= 5

    def test_star_graph(self):
        tree = RootedTree([None] + [0] * 9)
        decomposition = HeavyPathDecomposition(tree)
        # no child holds half the tree, so the root is alone on its path
        assert decomposition.path_of(0) != decomposition.path_of(1)
        assert all(decomposition.light_depth(v) == 1 for v in range(1, 10))

    def test_positions_and_heads(self, any_tree):
        decomposition = HeavyPathDecomposition(any_tree)
        for path_id, path in enumerate(decomposition.paths()):
            assert decomposition.head(path_id) == path[0]
            for position, node in enumerate(path):
                assert decomposition.path_of(node) == path_id
                assert decomposition.position_on_path(node) == position
                assert decomposition.head_of(node) == path[0]

    def test_light_edges_on_root_path(self, any_tree):
        decomposition = HeavyPathDecomposition(any_tree)
        for node in any_tree.nodes():
            edges = light_edges_on_root_path(decomposition, node)
            assert len(edges) == decomposition.light_depth(node)
            for child in edges:
                assert decomposition.is_light_edge(child)

    def test_structural_invariants(self, any_tree):
        decomposition = HeavyPathDecomposition(any_tree)
        check_partition_into_paths(decomposition)
        check_light_depth_bound(decomposition)
        check_heavy_path_rule(decomposition)

    @given(parent_array_trees(max_nodes=60))
    @settings(max_examples=60, deadline=None)
    def test_invariants_property(self, tree):
        decomposition = HeavyPathDecomposition(tree)
        check_partition_into_paths(decomposition)
        check_light_depth_bound(decomposition)
        check_heavy_path_rule(decomposition)

    def test_preorder_with_heavy_child_last(self, any_tree):
        decomposition = HeavyPathDecomposition(any_tree)
        order = decomposition.preorder_with_heavy_child_last()
        position = {node: index for index, node in enumerate(order)}
        assert sorted(order) == list(any_tree.nodes())
        # the heavy child's subtree occupies the tail of the parent's interval
        for node in any_tree.nodes():
            heavy = decomposition.heavy_child(node)
            if heavy is None:
                continue
            for child in any_tree.children(node):
                if child != heavy:
                    assert position[child] < position[heavy]


class TestCollapsedTree:
    def test_height_bound(self, any_tree):
        collapsed = CollapsedTree(HeavyPathDecomposition(any_tree))
        check_collapsed_height_bound(collapsed)
        assert collapsed.height() <= max(1, int(math.log2(any_tree.n)) if any_tree.n > 1 else 0)

    def test_parent_child_consistency(self, any_tree):
        collapsed = CollapsedTree(HeavyPathDecomposition(any_tree))
        for path in range(len(collapsed)):
            parent = collapsed.parent(path)
            if parent is None:
                assert path == collapsed.root
                continue
            assert path in collapsed.children(parent)
            branch = branch_node(collapsed, path)
            assert any_tree.parent(collapsed.head(path)) == branch
            assert collapsed.decomposition.path_of(branch) == parent

    def test_children_ordering(self, any_tree):
        decomposition = HeavyPathDecomposition(any_tree)
        collapsed = CollapsedTree(decomposition)
        for path in range(len(collapsed)):
            children = collapsed.children(path)
            positions = [
                decomposition.position_on_path(branch_node(collapsed, child))
                for child in children
            ]
            assert positions == sorted(positions)
            # exceptional = the last ordered child
            for index, child in enumerate(children):
                assert collapsed.is_exceptional(child) == (index == len(children) - 1)
                assert collapsed.child_index(child) == index

    def test_domination_matches_postorder(self, any_tree):
        collapsed = CollapsedTree(HeavyPathDecomposition(any_tree))
        numbers = [collapsed.domination_number(path) for path in range(len(collapsed))]
        assert sorted(numbers) == list(range(len(collapsed)))
        # an ancestor collapsed node never dominates its descendants
        for path in range(len(collapsed)):
            parent = collapsed.parent(path)
            if parent is not None:
                assert collapsed.domination_number(parent) > collapsed.domination_number(path)

    @given(parent_array_trees(max_nodes=50))
    @settings(max_examples=50, deadline=None)
    def test_domination_agrees_with_lemma_3_1(self, tree):
        """Observation (1): light-branching node dominates heavy-continuing node."""
        from repro.oracles.exact_oracle import TreeDistanceOracle

        decomposition = HeavyPathDecomposition(tree)
        collapsed = CollapsedTree(decomposition)
        oracle = TreeDistanceOracle(tree)
        leaves = [v for v in tree.nodes() if tree.is_leaf(v)]
        for u in leaves:
            for v in leaves:
                if u == v:
                    continue
                if decomposition.path_of(u) == decomposition.path_of(v):
                    continue
                nca = oracle.lca(u, v)
                if nca in (u, v):
                    continue
                u_child = next(x for x in tree.path_to_root(u) if tree.parent(x) == nca)
                v_child = next(x for x in tree.path_to_root(v) if tree.parent(x) == nca)
                u_light = decomposition.is_light_edge(u_child)
                v_light = decomposition.is_light_edge(v_child)
                if u_light and not v_light:
                    assert collapsed.dominates(u, v)
                if v_light and not u_light:
                    assert collapsed.dominates(v, u)

    def test_root_path_sequence(self, any_tree):
        """``root_path_levels``: the collapsed root path and each path's exit."""
        collapsed = CollapsedTree(HeavyPathDecomposition(any_tree))
        for node in any_tree.nodes():
            levels = collapsed.root_path_levels(node)
            sequence = [path for path, _ in levels]
            assert sequence[0] == collapsed.root
            assert sequence[-1] == collapsed_node_of(collapsed, node)
            assert len(sequence) == collapsed.depth(sequence[-1]) + 1
            for earlier, later in zip(sequence, sequence[1:]):
                assert collapsed.parent(later) == earlier
            # a path's exit is the deepest node of the tree root path on it
            root_path = any_tree.path_to_root(node)
            for path, exit_node in levels:
                on_path = [v for v in root_path if collapsed_node_of(collapsed, v) == path]
                assert exit_node == on_path[0]
