"""The row-level tree layer against its reference construction, row by row.

``tests/tree_reference.py`` keeps the accessor-by-accessor construction
of ``RootedTree``, ``HeavyPathDecomposition``, ``CollapsedTree``, the light
codes and the Section 2 transform.  Here every row the row-level code
builds is compared with it, on hypothesis trees (relabelled, so parent
arrays are not increasing), on the structured families, and through the
transform with and without binarization.
The tests also pin the fused validation of ``RootedTree`` and the
``array`` typecode of every row.
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import given, settings, strategies as st

import tree_reference as ref
from repro.generators.random_trees import random_binary_tree, random_prufer_tree
from repro.generators.structured import (
    broom_tree,
    caterpillar_tree,
    path_tree,
    spider_tree,
    star_tree,
)
from repro.nca.labels import LightDepthLabeling
from repro.trees.collapsed import CollapsedTree
from repro.trees.heavy_path import HeavyPathDecomposition
from repro.trees.transform import attach_leaves, binarize, prepare_for_leaf_queries
from repro.trees.tree import RootedTree, TreeError

from strategies import STRUCTURED_FAMILIES, parent_array_trees, weighted_trees

#: the documented typecode of every row, per class
TREE_ROWS = {
    "_parents": "i",
    "_weights": "q",
    "_child_start": "i",
    "_child_data": "i",
    "_preorder": "i",
    "_postorder": "i",
    "_pre_index": "i",
    "_post_index": "i",
    "_depth": "i",
    "_root_distance": "q",
    "_subtree_size": "i",
}
DECOMPOSITION_ROWS = {
    "_path_of": "i",
    "_position": "i",
    "_heavy_child": "i",
    "_light_depth": "i",
    "_path_data": "i",
    "_path_start": "i",
}
COLLAPSED_ROWS = {
    "_parent": "i",
    "_branch_node": "i",
    "_head": "i",
    "_child_start": "i",
    "_child_data": "i",
    "_child_index": "i",
    "_depth": "i",
    "_postorder_number": "i",
}
LIGHT_ROWS = {"codeword_value": "q", "codeword_length": "h"}
TRANSFORM_ROWS = {"query_node": "i", "origin": "i"}


@st.composite
def relabelled_trees(draw, max_nodes: int = 40) -> RootedTree:
    """A weighted hypothesis tree under a random node relabelling."""
    tree = draw(weighted_trees(max_nodes=max_nodes))
    n = tree.n
    label = draw(st.permutations(range(n)))
    parents = [None] * n
    weights = [0] * n
    for node in range(n):
        parent = tree.parent(node)
        parents[label[node]] = None if parent is None else label[parent]
        weights[label[node]] = tree.edge_weight(node)
    return RootedTree(parents, weights)


def _structured() -> dict:
    trees = {name: make() for name, make in STRUCTURED_FAMILIES.items()}
    trees.update(
        {
            "path-300": path_tree(300),
            "star-300": star_tree(300),
            "caterpillar-300": caterpillar_tree(300),
            "broom-300": broom_tree(300),
            "spider-301": spider_tree(301, legs=6),
            "prufer-400": random_prufer_tree(400, seed=3),
            "binary-400": random_binary_tree(400, seed=4),
        }
    )
    return trees


STRUCTURED = _structured()


def _assert_tree_rows(tree: RootedTree) -> None:
    expected = ref.rooted_tree_rows(tree._parents, tree._weights)
    assert tree.root == expected["root"]
    for name in TREE_ROWS:
        assert getattr(tree, name) == expected[name[1:]], name


def _assert_layer_rows(tree: RootedTree) -> None:
    """The tree, its decomposition, the collapsed tree and the light codes."""
    _assert_tree_rows(tree)
    decomposition = HeavyPathDecomposition(tree)
    expected = ref.heavy_path_rows(tree)
    for name in DECOMPOSITION_ROWS:
        assert getattr(decomposition, name) == expected[name[1:]], name
    collapsed = CollapsedTree(decomposition)
    expected = ref.collapsed_rows(decomposition)
    assert collapsed.root == expected["root"]
    for name in COLLAPSED_ROWS:
        if name != "_head":
            assert getattr(collapsed, name) == expected[name[1:]], name
    assert list(collapsed._head) == [decomposition.head(p) for p in range(len(collapsed))]
    light = LightDepthLabeling(tree, collapsed)
    assert (light.codeword_value, light.codeword_length) == ref.light_code_rows(collapsed)


def _assert_same_transform(result, expected) -> None:
    assert result.tree._parents == expected.tree._parents
    assert result.tree._weights == expected.tree._weights
    assert result.query_node == expected.query_node
    assert result.origin == expected.origin


def _assert_transforms(tree: RootedTree) -> None:
    """Every transform against the reference, then the layer on its output."""
    for binarize_tree in (True, False):
        result = prepare_for_leaf_queries(tree, binarize_tree=binarize_tree)
        _assert_same_transform(result, ref.prepare_for_leaf_queries(tree, binarize_tree))
        _assert_layer_rows(result.tree)
    _assert_same_transform(binarize(tree), ref.binarize(tree))
    for only_internal in (True, False):
        _assert_same_transform(
            attach_leaves(tree, only_internal), ref.attach_leaves(tree, only_internal)
        )


class TestDifferential:
    @pytest.mark.parametrize("name", sorted(STRUCTURED))
    def test_structured(self, name):
        tree = STRUCTURED[name]
        _assert_layer_rows(tree)
        _assert_transforms(tree)

    @given(parent_array_trees(max_nodes=60))
    @settings(max_examples=60, deadline=None)
    def test_parent_array_trees(self, tree):
        _assert_layer_rows(tree)
        _assert_transforms(tree)

    @given(relabelled_trees(max_nodes=40))
    @settings(max_examples=60, deadline=None)
    def test_relabelled_weighted_trees(self, tree):
        _assert_layer_rows(tree)
        _assert_transforms(tree)

    def test_single_node(self):
        tree = RootedTree([None])
        _assert_layer_rows(tree)
        _assert_transforms(tree)
        assert len(CollapsedTree(HeavyPathDecomposition(tree))) == 1

    @given(parent_array_trees(max_nodes=30), st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_with_child_order(self, tree, rng):
        order = {}
        for node in tree.nodes():
            children = tree.children(node)
            rng.shuffle(children)
            order[node] = children
        clone = tree.with_child_order(order)
        expected = ref.compute_orders(
            tree.n, tree.root, clone._child_start, clone._child_data, clone._weights
        )
        for name in TREE_ROWS:
            if name[1:] in expected:
                assert getattr(clone, name) == expected[name[1:]], name
        decomposition = HeavyPathDecomposition(clone)
        expected = ref.heavy_path_rows(clone)
        for name in DECOMPOSITION_ROWS:
            assert getattr(decomposition, name) == expected[name[1:]], name


class TestValidation:
    """One preorder pass validates: what it does not reach is an error."""

    @pytest.mark.parametrize(
        "parents",
        [
            [None, 1],  # self-loop
            [None, 2, 1],  # 2-cycle beside the root
            [None, 0, 3, 4, 5, 6, 2],  # 5-cycle beside a rooted edge
            [None, 2, 3, 1, 1, 4],  # a cycle with a path hanging off it
            [1, 0, None],  # 2-cycle through node 0, root elsewhere
        ],
    )
    def test_cycles(self, parents):
        with pytest.raises(TreeError, match="disconnected"):
            RootedTree(parents)

    @pytest.mark.parametrize("parents", [[None, 2], [None, 0, 3], [None, 0, -1, 9]])
    def test_parent_out_of_range_or_second_root(self, parents):
        with pytest.raises(TreeError):
            RootedTree(parents)

    def test_parent_out_of_range_names_the_node(self):
        with pytest.raises(TreeError, match="node 2 out of range: 3"):
            RootedTree([None, 0, 3])

    @pytest.mark.parametrize("parents", [[None, None], [None, 0, None], [-1, -3, 0], []])
    def test_root_count(self, parents):
        with pytest.raises(TreeError):
            RootedTree(parents)

    @pytest.mark.parametrize("weights", [[0, -1], [5, 0, -2]])
    def test_negative_weights(self, weights):
        with pytest.raises(TreeError, match="non-negative"):
            RootedTree([None] + [0] * (len(weights) - 1), weights)

    def test_negative_weight_on_the_root_is_rejected(self):
        with pytest.raises(TreeError):
            RootedTree([None, 0], [-1, 1])

    def test_weights_length(self):
        with pytest.raises(TreeError):
            RootedTree([None, 0], [0])

    @pytest.mark.parametrize(
        "root_marker, container",
        [(None, list), (-(2**40), list)]
        + [(marker, kind) for marker in (-1, -2, -7, -(2**31)) for kind in (list, array)],
    )
    def test_root_markers_and_containers_agree(self, root_marker, container):
        base = [None, 0, 0, 1, 3, 3, 0]
        expected = RootedTree(base)
        parents = [root_marker] + base[1:]
        tree = RootedTree(parents if container is list else array("i", parents))
        for name in TREE_ROWS:
            assert getattr(tree, name) == getattr(expected, name), name
        assert tree.parent(0) is None

    def test_unordered_input_equals_reference(self):
        parents = [4, 4, None, 2, 2, 0, 0, 5]
        _assert_tree_rows(RootedTree(parents))
        _assert_tree_rows(RootedTree(array("q", [4, 4, -1, 2, 2, 0, 0, 5])))


class TestRowTypes:
    """Every per-node and per-path row is an ``array`` of its documented type.

    A ``list`` row costs a pointer plus an int object per entry; the
    streaming builds of ``repro.scale`` only fit their memory budget with
    packed rows, and nothing short of this test sees the difference.
    """

    @staticmethod
    def _assert_rows(obj, rows: dict, length: int | None = None) -> None:
        for name, typecode in rows.items():
            row = getattr(obj, name)
            assert isinstance(row, array), (type(obj).__name__, name, type(row))
            assert row.typecode == typecode, (type(obj).__name__, name, row.typecode)
        for name, value in vars(obj).items():
            assert not isinstance(value, (list, tuple, dict)), (type(obj).__name__, name)
            if isinstance(value, array):
                assert name in rows, (type(obj).__name__, name)

    @pytest.mark.parametrize("binarize_tree", [True, False])
    def test_rows_are_arrays(self, binarize_tree):
        transform = prepare_for_leaf_queries(random_prufer_tree(300, seed=1), binarize_tree)
        self._assert_rows(transform, TRANSFORM_ROWS)
        tree = transform.tree
        self._assert_rows(tree, TREE_ROWS)
        decomposition = HeavyPathDecomposition(tree)
        self._assert_rows(decomposition, DECOMPOSITION_ROWS)
        collapsed = CollapsedTree(decomposition)
        self._assert_rows(collapsed, COLLAPSED_ROWS)
        self._assert_rows(LightDepthLabeling(tree, collapsed), LIGHT_ROWS)
