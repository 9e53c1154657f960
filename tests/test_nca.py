"""Tests for the LCA oracle, light-depth labels and the NCA labeling."""

import random

from hypothesis import given, settings

from repro.nca.labels import LightDepthLabel, LightDepthLabeling
from repro.nca.lca_oracle import LCAOracle
from repro.nca.nca_labeling import NCALabeling
from repro.trees.collapsed import CollapsedTree
from repro.trees.heavy_path import HeavyPathDecomposition
from repro.trees.tree import RootedTree

from strategies import parent_array_trees


def naive_lca(tree: RootedTree, u: int, v: int) -> int:
    ancestors = set(tree.path_to_root(u))
    for node in tree.path_to_root(v):
        if node in ancestors:
            return node
    raise AssertionError("no common ancestor")


class TestLCAOracle:
    def test_matches_naive(self, any_tree):
        oracle = LCAOracle(any_tree)
        rng = random.Random(0)
        for _ in range(100):
            u = rng.randrange(any_tree.n)
            v = rng.randrange(any_tree.n)
            assert oracle.query(u, v) == naive_lca(any_tree, u, v)

    def test_distance_through_lca(self, any_tree):
        oracle = LCAOracle(any_tree)
        rng = random.Random(1)
        for _ in range(50):
            u = rng.randrange(any_tree.n)
            assert oracle.distance(u, u) == 0
            v = rng.randrange(any_tree.n)
            assert oracle.distance(u, v) == oracle.distance(v, u)

    @given(parent_array_trees(max_nodes=40))
    @settings(max_examples=40, deadline=None)
    def test_lca_property(self, tree):
        oracle = LCAOracle(tree)
        rng = random.Random(2)
        for _ in range(20):
            u = rng.randrange(tree.n)
            v = rng.randrange(tree.n)
            assert oracle.query(u, v) == naive_lca(tree, u, v)


class TestLightDepthLabeling:
    def test_lightdepth_of_nca_matches_oracle(self, any_tree):
        decomposition = HeavyPathDecomposition(any_tree)
        collapsed = CollapsedTree(decomposition)
        labeling = LightDepthLabeling(any_tree, collapsed)
        labels = labeling.encode()
        oracle = LCAOracle(any_tree)
        rng = random.Random(3)
        for _ in range(150):
            u = rng.randrange(any_tree.n)
            v = rng.randrange(any_tree.n)
            nca = oracle.query(u, v)
            expected = decomposition.light_depth(nca)
            assert LightDepthLabeling.lightdepth_of_nca(labels[u], labels[v]) == expected

    def test_label_sizes_logarithmic(self, any_tree):
        import math

        labeling = LightDepthLabeling(any_tree)
        labels = labeling.encode()
        bound = 12 * (math.log2(any_tree.n) + 2) + 16
        assert max(label.bit_length() for label in labels.values()) <= bound

    def test_serialisation_round_trip(self, any_tree):
        labeling = LightDepthLabeling(any_tree)
        for node in any_tree.nodes():
            label = labeling.label(node)
            restored = LightDepthLabel.from_bits(label.to_bits())
            assert restored == label

    @given(parent_array_trees(max_nodes=40))
    @settings(max_examples=30, deadline=None)
    def test_lightdepth_property(self, tree):
        decomposition = HeavyPathDecomposition(tree)
        collapsed = CollapsedTree(decomposition)
        labeling = LightDepthLabeling(tree, collapsed)
        labels = labeling.encode()
        oracle = LCAOracle(tree)
        rng = random.Random(4)
        for _ in range(25):
            u = rng.randrange(tree.n)
            v = rng.randrange(tree.n)
            assert LightDepthLabeling.lightdepth_of_nca(
                labels[u], labels[v]
            ) == decomposition.light_depth(oracle.query(u, v))


class TestNCALabeling:
    def test_returns_canonical_nca_label(self, any_tree):
        labeling = NCALabeling(any_tree)
        labels = labeling.encode()
        oracle = LCAOracle(any_tree)
        rng = random.Random(5)
        for _ in range(100):
            u = rng.randrange(any_tree.n)
            v = rng.randrange(any_tree.n)
            nca_label, lightdepth, root_distance = NCALabeling.nca(labels[u], labels[v])
            nca = oracle.query(u, v)
            assert root_distance == any_tree.root_distance(nca)
            assert nca_label.key() == labels[nca].key()
            assert lightdepth == HeavyPathDecomposition(any_tree).light_depth(nca)

    def test_labels_are_distinct(self, any_tree):
        labels = NCALabeling(any_tree).encode()
        keys = {label.key() for label in labels.values()}
        assert len(keys) == any_tree.n

    def test_distance_helper(self, any_tree):
        labeling = NCALabeling(any_tree)
        labels = labeling.encode()
        oracle = LCAOracle(any_tree)
        rng = random.Random(6)
        for _ in range(50):
            u = rng.randrange(any_tree.n)
            v = rng.randrange(any_tree.n)
            assert NCALabeling.distance(labels[u], labels[v]) == oracle.distance(u, v)

    def test_serialisation_round_trip(self, any_tree):
        from repro.nca.nca_labeling import NCALabel

        labeling = NCALabeling(any_tree)
        for node in list(any_tree.nodes())[:20]:
            label = labeling.label(node)
            assert NCALabel.from_bits(label.to_bits()).key() == label.key()
