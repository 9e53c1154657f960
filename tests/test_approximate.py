"""Tests for the (1+eps)-approximate distance labeling (Section 5.2)."""

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.approximate import ApproximateLabel, ApproximateScheme, rounded_exponent
from repro.generators.workloads import make_tree
from repro.oracles.exact_oracle import TreeDistanceOracle

from strategies import parent_array_trees

EPSILONS = [1.0, 0.5, 0.25, 0.1, 0.05]


def check_queries(scheme, tree, pairs):
    oracle = TreeDistanceOracle(tree)
    labels = scheme.encode(tree)
    for u, v in pairs:
        exact = oracle.distance(u, v)
        answer = scheme.approximate_distance(labels[u], labels[v])
        assert answer >= exact - 1e-9, (u, v, exact, answer)
        assert answer <= (1.0 + scheme.epsilon) * exact + 1e-9, (u, v, exact, answer)


class TestRoundedExponent:
    def test_small_values(self):
        assert rounded_exponent(0, 1.5) == 0
        assert rounded_exponent(1, 1.5) == 0

    @given(
        st.integers(min_value=1, max_value=10**6),
        st.floats(min_value=1.01, max_value=2.0),
    )
    def test_bracketing_property(self, distance, base):
        exponent = rounded_exponent(distance, base)
        assert base ** exponent >= distance
        if exponent > 0:
            assert base ** (exponent - 1) < distance


class TestApproximateScheme:
    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            ApproximateScheme(0.0)

    @pytest.mark.parametrize("eps", EPSILONS)
    def test_all_pairs_small_trees(self, eps):
        for family in ("path", "star", "caterpillar", "balanced_binary"):
            tree = make_tree(family, 22, seed=1)
            scheme = ApproximateScheme(eps)
            pairs = [(u, v) for u in tree.nodes() for v in tree.nodes()]
            check_queries(scheme, tree, pairs)

    @pytest.mark.parametrize("eps", EPSILONS)
    def test_random_queries_medium_tree(self, eps, medium_random_tree):
        rng = random.Random(0)
        pairs = [
            (rng.randrange(medium_random_tree.n), rng.randrange(medium_random_tree.n))
            for _ in range(300)
        ]
        check_queries(ApproximateScheme(eps), medium_random_tree, pairs)

    def test_exact_on_ancestor_queries(self):
        tree = make_tree("path", 100)
        scheme = ApproximateScheme(0.5)
        labels = scheme.encode(tree)
        oracle = TreeDistanceOracle(tree)
        for u, v in [(0, 99), (10, 60), (42, 42)]:
            assert scheme.approximate_distance(labels[u], labels[v]) == oracle.distance(u, v)

    def test_serialisation_round_trip(self):
        tree = make_tree("random", 70, seed=2)
        scheme = ApproximateScheme(0.25)
        labels = scheme.encode(tree)
        oracle = TreeDistanceOracle(tree)
        rng = random.Random(1)
        for _ in range(100):
            u, v = rng.randrange(tree.n), rng.randrange(tree.n)
            answer = scheme.query_from_bits(
                labels[u].to_bits(), labels[v].to_bits()
            )
            exact = oracle.distance(u, v)
            assert exact - 1e-9 <= answer <= (1.25) * exact + 1e-9

    def test_parse_matches_label(self):
        tree = make_tree("random", 30, seed=3)
        scheme = ApproximateScheme(0.5)
        for label in scheme.encode(tree).values():
            restored = ApproximateLabel.from_bits(label.to_bits())
            assert restored.preorder == label.preorder
            assert restored.exponents == label.exponents

    @given(parent_array_trees(max_nodes=35), st.sampled_from(EPSILONS))
    @settings(max_examples=40, deadline=None)
    def test_stretch_property(self, tree, eps):
        scheme = ApproximateScheme(eps)
        rng = random.Random(4)
        pairs = [(rng.randrange(tree.n), rng.randrange(tree.n)) for _ in range(30)]
        check_queries(scheme, tree, pairs)

    def test_label_size_grows_with_log_inverse_epsilon(self):
        """Smaller eps means larger labels, but only logarithmically so."""
        tree = make_tree("random", 2048, seed=5)
        sizes = {}
        for eps in (1.0, 0.25, 0.0625, 0.015625):
            labels = ApproximateScheme(eps).encode(tree)
            sizes[eps] = max(label.bit_length() for label in labels.values())
        assert sizes[0.25] >= sizes[1.0]
        assert sizes[0.015625] >= sizes[0.0625]
        # halving eps four times should not blow the label up by more than ~4x
        assert sizes[0.015625] <= 4 * sizes[1.0] + 64

    def test_smaller_than_exact_labels(self):
        from repro.core.alstrup import AlstrupScheme

        tree = make_tree("random", 2048, seed=6)
        approx = ApproximateScheme(0.5).encode(tree)
        exact = AlstrupScheme().encode(tree)
        assert max(l.bit_length() for l in approx.values()) < max(
            l.bit_length() for l in exact.values()
        )
