"""Correctness of every exact distance labeling scheme against the oracle.

This is the central integration test of the library: each scheme must
answer every query exactly, including after a full serialisation round trip
of the labels (decoders see bits only).
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.alstrup import AlstrupScheme
from repro.core.freedman import FreedmanScheme
from repro.core.hld import HLDScheme
from repro.core.naive import NaiveListScheme
from repro.core.separator import SeparatorScheme
from repro.generators.workloads import make_tree
from repro.oracles.exact_oracle import TreeDistanceOracle

from strategies import parent_array_trees, weighted_trees

ALL_EXACT_SCHEMES = [
    NaiveListScheme,
    SeparatorScheme,
    HLDScheme,
    AlstrupScheme,
    FreedmanScheme,
]


@pytest.fixture(params=[cls.__name__ for cls in ALL_EXACT_SCHEMES])
def exact_scheme(request):
    index = [cls.__name__ for cls in ALL_EXACT_SCHEMES].index(request.param)
    return ALL_EXACT_SCHEMES[index]()


class TestExactSchemes:
    def test_single_node(self, exact_scheme):
        tree = make_tree("path", 1)
        labels = exact_scheme.encode(tree)
        assert exact_scheme.distance(labels[0], labels[0]) == 0

    def test_two_nodes(self, exact_scheme):
        tree = make_tree("path", 2)
        labels = exact_scheme.encode(tree)
        assert exact_scheme.distance(labels[0], labels[1]) == 1
        assert exact_scheme.distance(labels[1], labels[0]) == 1

    def test_all_pairs_small_trees(self, exact_scheme):
        for family in ("path", "star", "caterpillar", "balanced_binary", "spider"):
            tree = make_tree(family, 20, seed=1)
            oracle = TreeDistanceOracle(tree)
            labels = exact_scheme.encode(tree)
            for u in tree.nodes():
                for v in tree.nodes():
                    assert exact_scheme.distance(labels[u], labels[v]) == oracle.distance(u, v)

    def test_random_queries_medium_tree(self, exact_scheme, medium_random_tree):
        tree = medium_random_tree
        oracle = TreeDistanceOracle(tree)
        labels = exact_scheme.encode(tree)
        rng = random.Random(0)
        for _ in range(300):
            u, v = rng.randrange(tree.n), rng.randrange(tree.n)
            assert exact_scheme.distance(labels[u], labels[v]) == oracle.distance(u, v)

    def test_symmetry(self, exact_scheme, medium_random_tree):
        labels = exact_scheme.encode(medium_random_tree)
        rng = random.Random(1)
        for _ in range(100):
            u = rng.randrange(medium_random_tree.n)
            v = rng.randrange(medium_random_tree.n)
            assert exact_scheme.distance(labels[u], labels[v]) == exact_scheme.distance(
                labels[v], labels[u]
            )

    def test_queries_from_serialised_bits(self, exact_scheme):
        tree = make_tree("random", 60, seed=3)
        oracle = TreeDistanceOracle(tree)
        labels = exact_scheme.encode(tree)
        bits = {node: label.to_bits() for node, label in labels.items()}
        rng = random.Random(2)
        for _ in range(80):
            u, v = rng.randrange(tree.n), rng.randrange(tree.n)
            assert exact_scheme.query_from_bits(bits[u], bits[v]) == oracle.distance(u, v)

    def test_label_size_helpers(self, exact_scheme, medium_random_tree):
        labels = exact_scheme.encode(medium_random_tree)
        sizes = exact_scheme.label_sizes(labels)
        assert len(sizes) == medium_random_tree.n
        assert exact_scheme.max_label_bits(labels) == max(sizes)
        assert abs(
            exact_scheme.average_label_bits(labels) - sum(sizes) / len(sizes)
        ) < 1e-9

    @given(parent_array_trees(max_nodes=35))
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_arbitrary_trees_property(self, exact_scheme, tree):
        oracle = TreeDistanceOracle(tree)
        labels = exact_scheme.encode(tree)
        rng = random.Random(4)
        for _ in range(40):
            u, v = rng.randrange(tree.n), rng.randrange(tree.n)
            assert exact_scheme.distance(labels[u], labels[v]) == oracle.distance(u, v)


class TestWeightedTrees:
    """Schemes that accept weighted trees must answer weighted distances."""

    @pytest.mark.parametrize(
        "scheme_cls", [NaiveListScheme, SeparatorScheme, HLDScheme, AlstrupScheme, FreedmanScheme]
    )
    @given(tree=weighted_trees(max_nodes=25))
    @settings(max_examples=20, deadline=None)
    def test_weighted_queries(self, scheme_cls, tree):
        scheme = scheme_cls()
        oracle = TreeDistanceOracle(tree)
        labels = scheme.encode(tree)
        rng = random.Random(5)
        for _ in range(30):
            u, v = rng.randrange(tree.n), rng.randrange(tree.n)
            assert scheme.distance(labels[u], labels[v]) == oracle.distance(u, v)


class TestLabelSizeShape:
    """Coarse label-size sanity: the heavy-path schemes stay polylogarithmic."""

    @pytest.mark.parametrize("scheme_cls", [HLDScheme, AlstrupScheme, FreedmanScheme])
    def test_polylog_growth(self, scheme_cls):
        import math

        sizes = []
        for n in (128, 512, 2048):
            tree = make_tree("random", n, seed=1)
            labels = scheme_cls().encode(tree)
            sizes.append(max(label.bit_length() for label in labels.values()))
        for n, bits in zip((128, 512, 2048), sizes):
            assert bits <= 30 * math.log2(n) ** 1.6

    def test_naive_scheme_blows_up_on_paths(self):
        tree = make_tree("path", 256)
        naive = NaiveListScheme().encode(tree)
        alstrup = AlstrupScheme().encode(tree)
        assert max(l.bit_length() for l in naive.values()) > 4 * max(
            l.bit_length() for l in alstrup.values()
        )
