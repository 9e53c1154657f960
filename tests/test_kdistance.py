"""Tests for the k-distance labeling scheme (Section 4)."""

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.kdistance import (
    COMPACT,
    SIMPLE,
    KDistanceLabel,
    KDistanceScheme,
    floor_log2,
    range_height,
    range_identifier,
)
from repro.generators.workloads import make_tree
from repro.oracles.exact_oracle import TreeDistanceOracle
from repro.trees.heavy_path import HeavyPathDecomposition
from repro.trees.tree import RootedTree

from strategies import parent_array_trees


def expected_answer(oracle, u, v, k):
    distance = oracle.distance(u, v)
    return distance if distance <= k else None


class TestRangeIdentifiers:
    def test_range_height(self):
        assert range_height(5, 5) == 0
        assert range_height(4, 5) == 1
        assert range_height(4, 7) == 2
        assert range_height(3, 4) == 3

    def test_identifier_distinguishes_heights(self):
        # Observation 4.2: identifiers of disjoint ranges differ
        assert range_identifier(4, 2) != range_identifier(4, 3)
        assert range_identifier(0, 1) != range_identifier(2, 1)

    def test_identifier_computable_from_any_member(self):
        # all members of the trie node [4, 7] give the same identifier
        height = range_height(4, 7)
        identifiers = {range_identifier(x, height) for x in range(4, 8)}
        assert len(identifiers) == 1

    @given(st.integers(min_value=0, max_value=2000), st.integers(min_value=0, max_value=2000))
    def test_disjoint_ranges_have_distinct_identifiers(self, a, b):
        low_a, high_a = min(a, b), min(a, b)
        low_b = max(a, b) + 1
        high_b = low_b + 3
        id_a = (range_height(low_a, high_a), range_identifier(low_a, range_height(low_a, high_a)))
        id_b = (range_height(low_b, high_b), range_identifier(low_b, range_height(low_b, high_b)))
        assert id_a != id_b

    def test_floor_log2(self):
        assert floor_log2(1) == 0
        assert floor_log2(2) == 1
        assert floor_log2(3) == 1
        assert floor_log2(1024) == 10
        with pytest.raises(ValueError):
            floor_log2(0)

    def test_identifiers_increase_along_heavy_paths(self):
        """The Section 4.3 monotonicity the Lemma 4.5 machinery relies on."""
        for family in ("random", "path", "caterpillar", "balanced_binary"):
            tree = make_tree(family, 300, seed=1)
            decomposition = HeavyPathDecomposition(tree)
            order = decomposition.preorder_with_heavy_child_last()
            pre = {node: index for index, node in enumerate(order)}
            for path in decomposition.paths():
                previous = None
                for node in path:
                    heavy = decomposition.heavy_child(node)
                    light_size = tree.subtree_size(node) - (
                        tree.subtree_size(heavy) if heavy is not None else 0
                    )
                    height = range_height(pre[node], pre[node] + light_size - 1)
                    identifier = range_identifier(pre[node], height)
                    if previous is not None:
                        assert identifier > previous
                    previous = identifier


class TestSchemeBasics:
    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            KDistanceScheme(0)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            KDistanceScheme(3, mode="bogus")

    def test_rejects_weighted_trees(self):
        tree = RootedTree([None, 0], [0, 3])
        with pytest.raises(ValueError):
            KDistanceScheme(2).encode(tree)

    def test_identical_nodes(self):
        tree = make_tree("random", 30, seed=0)
        scheme = KDistanceScheme(3)
        labels = scheme.encode(tree)
        for node in tree.nodes():
            assert scheme.bounded_distance(labels[node], labels[node]) == 0

    def test_serialisation_round_trip(self):
        tree = make_tree("random", 80, seed=2)
        scheme = KDistanceScheme(4)
        oracle = TreeDistanceOracle(tree)
        labels = scheme.encode(tree)
        rng = random.Random(0)
        for _ in range(100):
            u, v = rng.randrange(tree.n), rng.randrange(tree.n)
            restored_u = KDistanceLabel.from_bits(labels[u].to_bits())
            restored_v = scheme.parse(labels[v].to_bits())
            assert scheme.bounded_distance(restored_u, restored_v) == expected_answer(
                oracle, u, v, 4
            )

    def test_bounded_distance_from_bits(self):
        tree = make_tree("caterpillar", 50, seed=1)
        scheme = KDistanceScheme(5)
        oracle = TreeDistanceOracle(tree)
        labels = scheme.encode(tree)
        for u, v in [(0, 1), (0, 49), (10, 12), (3, 3)]:
            assert scheme.query_from_bits(
                labels[u].to_bits(), labels[v].to_bits()
            ) == expected_answer(oracle, u, v, 5)


class TestExhaustiveSmallTrees:
    @pytest.mark.parametrize("family", ["path", "star", "caterpillar", "balanced_binary", "spider"])
    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    def test_all_pairs(self, family, k):
        tree = make_tree(family, 25, seed=1)
        oracle = TreeDistanceOracle(tree)
        scheme = KDistanceScheme(k)
        labels = scheme.encode(tree)
        for u in tree.nodes():
            for v in tree.nodes():
                assert scheme.bounded_distance(labels[u], labels[v]) == expected_answer(
                    oracle, u, v, k
                ), (family, k, u, v)


class TestModes:
    def test_auto_mode_picks_regime(self):
        scheme_small_k = KDistanceScheme(2)
        labels = scheme_small_k.encode(make_tree("random", 256, seed=3))
        assert all(label.compact for label in labels.values())

        scheme_large_k = KDistanceScheme(64)
        labels = scheme_large_k.encode(make_tree("random", 256, seed=3))
        assert all(not label.compact for label in labels.values())

    @pytest.mark.parametrize("mode", [COMPACT, SIMPLE])
    @pytest.mark.parametrize("k", [2, 5, 11])
    def test_forced_modes_are_correct(self, mode, k):
        tree = make_tree("random", 120, seed=4)
        oracle = TreeDistanceOracle(tree)
        scheme = KDistanceScheme(k, mode=mode)
        labels = scheme.encode(tree)
        rng = random.Random(1)
        for _ in range(300):
            u, v = rng.randrange(tree.n), rng.randrange(tree.n)
            assert scheme.bounded_distance(labels[u], labels[v]) == expected_answer(
                oracle, u, v, k
            )

    def test_compact_on_deep_paths_uses_lemma_4_5(self):
        """On a long path with small k, alphas are capped and the
        2-approximation tables must resolve the within-path distances."""
        tree = make_tree("path", 400)
        k = 3
        scheme = KDistanceScheme(k, mode=COMPACT)
        labels = scheme.encode(tree)
        capped = sum(1 for label in labels.values() if label.alpha == 2 * k + 1)
        assert capped > 0
        oracle = TreeDistanceOracle(tree)
        for u in range(0, 400, 7):
            for v in range(u, min(400, u + 12)):
                assert scheme.bounded_distance(labels[u], labels[v]) == expected_answer(
                    oracle, u, v, k
                )


class TestAdversarialShapes:
    @pytest.mark.parametrize("family", ["path", "broom", "random_caterpillar", "random", "star"])
    @pytest.mark.parametrize("k", [2, 8, 40])
    def test_random_queries(self, family, k):
        tree = make_tree(family, 350, seed=5)
        oracle = TreeDistanceOracle(tree)
        scheme = KDistanceScheme(k)
        labels = scheme.encode(tree)
        rng = random.Random(2)
        for _ in range(400):
            u, v = rng.randrange(tree.n), rng.randrange(tree.n)
            assert scheme.bounded_distance(labels[u], labels[v]) == expected_answer(
                oracle, u, v, k
            )


class TestProperties:
    @given(parent_array_trees(max_nodes=40), st.integers(min_value=1, max_value=12))
    @settings(max_examples=50, deadline=None)
    def test_matches_oracle(self, tree, k):
        oracle = TreeDistanceOracle(tree)
        scheme = KDistanceScheme(k)
        labels = scheme.encode(tree)
        rng = random.Random(3)
        for _ in range(40):
            u, v = rng.randrange(tree.n), rng.randrange(tree.n)
            assert scheme.bounded_distance(labels[u], labels[v]) == expected_answer(
                oracle, u, v, k
            )

    @given(parent_array_trees(max_nodes=30), st.integers(min_value=1, max_value=6))
    @settings(max_examples=30, deadline=None)
    def test_symmetry(self, tree, k):
        scheme = KDistanceScheme(k)
        labels = scheme.encode(tree)
        rng = random.Random(4)
        for _ in range(30):
            u, v = rng.randrange(tree.n), rng.randrange(tree.n)
            assert scheme.bounded_distance(labels[u], labels[v]) == scheme.bounded_distance(
                labels[v], labels[u]
            )


class TestLabelSizes:
    def test_small_k_close_to_log_n_plus_term(self):
        n = 4096
        tree = make_tree("random", n, seed=6)
        for k in (1, 2, 4, 8):
            labels = KDistanceScheme(k).encode(tree)
            max_bits = max(label.bit_length() for label in labels.values())
            bound = math.log2(n) + 14 * k * math.log2(max(math.log2(n) / k, 2)) + 64
            assert max_bits <= bound, (k, max_bits, bound)

    def test_large_k_stays_polylogarithmic(self):
        n = 2048
        tree = make_tree("random", n, seed=7)
        for k in (int(math.log2(n)), 4 * int(math.log2(n)), n):
            labels = KDistanceScheme(k).encode(tree)
            max_bits = max(label.bit_length() for label in labels.values())
            assert max_bits <= 40 * math.log2(n) * math.log2(max(k / math.log2(n), 2)) + 120
