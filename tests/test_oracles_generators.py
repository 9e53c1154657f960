"""Tests for the ground-truth oracles and the workload generators."""

import math
import random

import pytest
from hypothesis import given, settings

from repro.generators.random_trees import (
    random_binary_tree,
    random_caterpillar,
    random_prufer_tree,
    random_recursive_tree,
)
from repro.generators.structured import (
    balanced_binary_tree,
    broom_tree,
    caterpillar_tree,
    comb_tree,
    path_tree,
    spider_tree,
    star_tree,
)
from repro.generators.workloads import (
    FAMILIES,
    WORKLOADS,
    all_pairs,
    make_tree,
    near_pairs,
    pair_workload,
    random_pairs,
    uniform_pairs,
    zipf_pairs,
)
from repro.oracles.distance_matrix import DistanceMatrix
from repro.oracles.exact_oracle import TreeDistanceOracle
from repro.trees.tree import RootedTree

from strategies import weighted_trees
from tree_extras import random_weighted_tree


class TestDistanceMatrix:
    def test_matches_oracle(self, any_tree):
        matrix = DistanceMatrix(any_tree)
        oracle = TreeDistanceOracle(any_tree)
        for u in any_tree.nodes():
            for v in any_tree.nodes():
                assert matrix.distance(u, v) == oracle.distance(u, v)

    def test_symmetry_and_diagonal(self, any_tree):
        matrix = DistanceMatrix(any_tree)
        for u in any_tree.nodes():
            assert matrix.distance(u, u) == 0
            for v in any_tree.nodes():
                assert matrix.distance(u, v) == matrix.distance(v, u)

    @given(weighted_trees(max_nodes=15))
    @settings(max_examples=25, deadline=None)
    def test_weighted_distances(self, tree):
        matrix = DistanceMatrix(tree)
        oracle = TreeDistanceOracle(tree)
        for u in tree.nodes():
            for v in tree.nodes():
                assert matrix.distance(u, v) == oracle.distance(u, v)

    def test_diameter_and_profiles(self):
        tree = path_tree(6)
        matrix = DistanceMatrix(tree)
        assert matrix.diameter() == 5
        profile = matrix.leaf_profile([0, 5])
        assert profile == ((0, 5), (5, 0))


class TestExactOracle:
    def test_triangle_equality_through_lca(self, any_tree):
        oracle = TreeDistanceOracle(any_tree)
        rng = random.Random(0)
        for _ in range(50):
            u = rng.randrange(any_tree.n)
            v = rng.randrange(any_tree.n)
            lca = oracle.lca(u, v)
            assert oracle.distance(u, v) == oracle.distance(u, lca) + oracle.distance(lca, v)

    def test_level_ancestor(self):
        tree = path_tree(10)
        oracle = TreeDistanceOracle(tree)
        assert oracle.level_ancestor(9, 3) == 6
        assert oracle.level_ancestor(2, 5) is None

    def test_hop_distance_equals_weighted_for_unit_trees(self, any_tree):
        oracle = TreeDistanceOracle(any_tree)
        rng = random.Random(1)
        for _ in range(30):
            u, v = rng.randrange(any_tree.n), rng.randrange(any_tree.n)
            assert oracle.distance(u, v) == oracle.hop_distance(u, v)

    def test_eccentricity_path(self):
        oracle = TreeDistanceOracle(path_tree(8))
        assert oracle.eccentricity(0) == 7
        assert oracle.eccentricity(4) == 4


class TestStructuredGenerators:
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 33])
    def test_sizes(self, n):
        for builder in (path_tree, star_tree, caterpillar_tree, balanced_binary_tree,
                        broom_tree, comb_tree):
            assert builder(n).n == n
        assert spider_tree(n, legs=3).n == n

    def test_path_shape(self):
        tree = path_tree(5)
        assert tree.height() == 4
        assert len(tree.leaves()) == 1

    def test_star_shape(self):
        tree = star_tree(7)
        assert tree.height() == 1
        assert len(tree.leaves()) == 6

    def test_balanced_binary_height(self):
        tree = balanced_binary_tree(31)
        assert tree.height() == 4
        assert all(tree.degree(v) <= 2 for v in tree.nodes())

    def test_spider_legs(self):
        tree = spider_tree(13, legs=4)
        assert tree.degree(0) == 4

    def test_rejects_nonpositive(self):
        for builder in (path_tree, star_tree, caterpillar_tree, balanced_binary_tree):
            with pytest.raises(ValueError):
                builder(0)


class TestRandomGenerators:
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 64])
    def test_sizes_and_validity(self, n):
        assert random_prufer_tree(n, seed=1).n == n
        assert random_recursive_tree(n, seed=1).n == n
        assert random_caterpillar(n, seed=1).n == n
        binary = random_binary_tree(n, seed=1)
        assert binary.n == n
        assert all(binary.degree(v) <= 2 for v in binary.nodes())

    def test_determinism(self):
        a = random_prufer_tree(40, seed=11)
        b = random_prufer_tree(40, seed=11)
        assert [a.parent(v) for v in a.nodes()] == [b.parent(v) for v in b.nodes()]

    def test_different_seeds_differ(self):
        a = random_prufer_tree(60, seed=1)
        b = random_prufer_tree(60, seed=2)
        assert [a.parent(v) for v in a.nodes()] != [b.parent(v) for v in b.nodes()]

    def test_weighted_tree_weights_in_range(self):
        tree = random_weighted_tree(30, max_weight=5, seed=3)
        assert all(0 <= tree.edge_weight(v) <= 5 for v in tree.nodes())

    def test_prufer_uniformity_smoke(self):
        """All 3 labelled trees on 3 nodes appear across seeds."""
        shapes = set()
        for seed in range(60):
            tree = random_prufer_tree(3, seed=seed)
            shapes.add(tuple(tree.parent(v) for v in tree.nodes()))
        assert len(shapes) == 3


class TestWorkloads:
    def test_family_registry(self):
        for name in FAMILIES:
            tree = make_tree(name, 25, seed=0)
            assert tree.n == 25
        with pytest.raises(KeyError):
            make_tree("unknown", 10)

    def test_random_pairs(self):
        tree = make_tree("random", 30, seed=0)
        pairs = random_pairs(tree, 50, seed=1)
        assert len(pairs) == 50
        assert all(0 <= u < 30 and 0 <= v < 30 for u, v in pairs)

    def test_all_pairs(self):
        tree = make_tree("path", 5)
        assert len(all_pairs(tree)) == 25

    def test_near_pairs_are_biased(self):
        tree = make_tree("random", 200, seed=0)
        oracle = TreeDistanceOracle(tree)
        close = near_pairs(tree, 100, max_distance=3, seed=2)
        uniform = random_pairs(tree, 100, seed=2)
        close_avg = sum(oracle.distance(u, v) for u, v in close) / 100
        uniform_avg = sum(oracle.distance(u, v) for u, v in uniform) / 100
        assert close_avg < uniform_avg

    def test_uniform_pairs_accepts_count_or_tree(self):
        tree = make_tree("random", 40, seed=0)
        assert uniform_pairs(tree, 30, seed=1) == uniform_pairs(40, 30, seed=1)
        assert all(0 <= u < 40 and 0 <= v < 40 for u, v in uniform_pairs(40, 30))

    def test_zipf_pairs_are_skewed_and_deterministic(self):
        n, count = 500, 4000
        pairs = zipf_pairs(n, count, skew=1.2, seed=3)
        assert len(pairs) == count
        assert all(0 <= u < n and 0 <= v < n for u, v in pairs)
        assert pairs == zipf_pairs(n, count, skew=1.2, seed=3)  # deterministic
        assert pairs != zipf_pairs(n, count, skew=1.2, seed=4)
        # heavy concentration: the hottest decile of endpoints must cover far
        # more traffic than under the uniform workload
        counts: dict[int, int] = {}
        for u, v in pairs:
            counts[u] = counts.get(u, 0) + 1
            counts[v] = counts.get(v, 0) + 1
        top = sum(sorted(counts.values(), reverse=True)[: n // 10])
        assert top / (2 * count) > 0.5
        uniform = uniform_pairs(n, count, seed=3)
        ucounts: dict[int, int] = {}
        for u, v in uniform:
            ucounts[u] = ucounts.get(u, 0) + 1
            ucounts[v] = ucounts.get(v, 0) + 1
        utop = sum(sorted(ucounts.values(), reverse=True)[: n // 10])
        assert top > 2 * utop

    def test_zipf_pairs_zero_skew_is_uniform_shaped(self):
        pairs = zipf_pairs(200, 500, skew=0.0, seed=7)
        endpoints = {node for pair in pairs for node in pair}
        assert len(endpoints) > 150  # no concentration without skew

    def test_zipf_pairs_validation(self):
        with pytest.raises(ValueError):
            zipf_pairs(0, 10)
        with pytest.raises(ValueError):
            zipf_pairs(10, 10, skew=-1.0)

    def test_pair_workload_registry(self):
        assert sorted(WORKLOADS) == ["khop", "sibling", "uniform", "zipf"]
        assert pair_workload("uniform", 50, 20, seed=5) == uniform_pairs(50, 20, seed=5)
        assert pair_workload("zipf", 50, 20, seed=5, skew=1.5) == zipf_pairs(
            50, 20, skew=1.5, seed=5
        )
        with pytest.raises(KeyError):
            pair_workload("nope", 10, 5)
