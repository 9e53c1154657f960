"""Tests for the level-ancestor scheme (Section 3.6) and adjacency labels."""

import random

import pytest
from hypothesis import given, settings

from repro.core.adjacency import AdjacencyLabel, AdjacencyScheme
from repro.core.kdistance import KDistanceScheme
from repro.core.level_ancestor import LevelAncestorLabel, LevelAncestorScheme
from repro.generators.workloads import make_tree
from repro.oracles.exact_oracle import TreeDistanceOracle
from repro.trees.tree import RootedTree

from strategies import parent_array_trees


class TestLevelAncestorScheme:
    def test_rejects_weighted_trees(self):
        tree = RootedTree([None, 0], [0, 3])
        with pytest.raises(ValueError):
            LevelAncestorScheme().encode(tree)

    def test_labels_distinct(self, any_tree):
        labels = LevelAncestorScheme().encode(any_tree)
        assert len({label.key() for label in labels.values()}) == any_tree.n

    def test_parent_chain_reaches_root(self, any_tree):
        scheme = LevelAncestorScheme()
        labels = scheme.encode(any_tree)
        key_to_node = {label.key(): node for node, label in labels.items()}
        for node in any_tree.nodes():
            current_label = labels[node]
            current_node = node
            steps = 0
            while True:
                parent_label = scheme.parent(current_label)
                parent_node = any_tree.parent(current_node)
                if parent_node is None:
                    assert parent_label is None
                    break
                assert parent_label is not None
                assert key_to_node[parent_label.key()] == parent_node
                current_label, current_node = parent_label, parent_node
                steps += 1
                assert steps <= any_tree.n

    def test_level_ancestor_queries(self, any_tree):
        scheme = LevelAncestorScheme()
        labels = scheme.encode(any_tree)
        key_to_node = {label.key(): node for node, label in labels.items()}
        oracle = TreeDistanceOracle(any_tree)
        rng = random.Random(0)
        for _ in range(60):
            node = rng.randrange(any_tree.n)
            steps = rng.randint(0, any_tree.depth(node) + 2)
            expected = oracle.level_ancestor(node, steps)
            answer = scheme.level_ancestor(labels[node], steps)
            if expected is None:
                assert answer is None
            else:
                assert answer is not None and key_to_node[answer.key()] == expected

    def test_ancestor_at_depth(self):
        tree = make_tree("path", 20)
        scheme = LevelAncestorScheme()
        labels = scheme.encode(tree)
        key_to_node = {label.key(): node for node, label in labels.items()}
        answer = scheme.ancestor_at_depth(labels[15], 4)
        assert key_to_node[answer.key()] == 4
        assert scheme.ancestor_at_depth(labels[3], 10) is None

    def test_serialisation_round_trip(self, any_tree):
        scheme = LevelAncestorScheme()
        for node, label in scheme.encode(any_tree).items():
            restored = LevelAncestorLabel.from_bits(label.to_bits())
            assert restored.key() == label.key()
            assert restored.depth == label.depth

    def test_parent_queries_survive_serialisation(self):
        tree = make_tree("random", 60, seed=1)
        scheme = LevelAncestorScheme()
        labels = scheme.encode(tree)
        key_to_node = {label.key(): node for node, label in labels.items()}
        for node in tree.nodes():
            parsed = scheme.parse(labels[node].to_bits())
            parent_label = scheme.parent(parsed)
            if tree.parent(node) is None:
                assert parent_label is None
            else:
                assert key_to_node[parent_label.key()] == tree.parent(node)

    @given(parent_array_trees(max_nodes=40))
    @settings(max_examples=30, deadline=None)
    def test_parent_property(self, tree):
        scheme = LevelAncestorScheme()
        labels = scheme.encode(tree)
        key_to_node = {label.key(): node for node, label in labels.items()}
        for node in tree.nodes():
            parent_label = scheme.parent(labels[node])
            parent_node = tree.parent(node)
            if parent_node is None:
                assert parent_label is None
            else:
                assert key_to_node[parent_label.key()] == parent_node

    def test_label_size_is_half_squared_log_shape(self):
        """Level-ancestor labels carry the whole distance array, so they are
        comparable in size to the Alstrup distance labels (Theorem 1.2 says
        they cannot be much smaller)."""
        import math

        for n in (256, 1024):
            tree = make_tree("random", n, seed=2)
            labels = LevelAncestorScheme().encode(tree)
            max_bits = max(label.bit_length() for label in labels.values())
            assert max_bits <= 6 * math.log2(n) ** 2


class TestAdjacencyScheme:
    def test_adjacency_matches_tree(self, any_tree):
        scheme = AdjacencyScheme()
        labels = scheme.encode(any_tree)
        for u in any_tree.nodes():
            for v in any_tree.nodes():
                expected = any_tree.parent(u) == v or any_tree.parent(v) == u
                assert scheme.adjacent(labels[u], labels[v]) == expected

    def test_bounded_distance_semantics(self, any_tree):
        scheme = AdjacencyScheme()
        labels = scheme.encode(any_tree)
        oracle = TreeDistanceOracle(any_tree)
        for u in any_tree.nodes():
            for v in any_tree.nodes():
                expected = oracle.distance(u, v)
                expected = expected if expected <= 1 else None
                assert scheme.bounded_distance(labels[u], labels[v]) == expected

    def test_serialisation_round_trip(self, any_tree):
        scheme = AdjacencyScheme()
        for label in scheme.encode(any_tree).values():
            assert AdjacencyLabel.from_bits(label.to_bits()) == label
            assert scheme.parse(label.to_bits()) == label

    def test_agrees_with_kdistance_k1(self):
        """The folklore adjacency labels and KDistanceScheme(k=1) answer the
        same queries."""
        tree = make_tree("random", 40, seed=3)
        adjacency = AdjacencyScheme()
        kdist = KDistanceScheme(1)
        labels_a = adjacency.encode(tree)
        labels_k = kdist.encode(tree)
        for u in tree.nodes():
            for v in tree.nodes():
                assert adjacency.bounded_distance(
                    labels_a[u], labels_a[v]
                ) == kdist.bounded_distance(labels_k[u], labels_k[v])

    def test_label_size_is_two_log_n(self):
        import math

        tree = make_tree("random", 1024, seed=4)
        labels = AdjacencyScheme().encode(tree)
        assert max(label.bit_length() for label in labels.values()) <= 4 * math.log2(1024)
