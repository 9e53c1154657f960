"""Tests specific to the Freedman et al. 1/4 log² n scheme (Section 3)."""

import math
import random

import pytest
from hypothesis import given, settings

from repro.core.alstrup import AlstrupScheme
from repro.core.freedman import FreedmanLabel, FreedmanScheme
from repro.generators.workloads import make_tree
from repro.oracles.exact_oracle import TreeDistanceOracle

from strategies import parent_array_trees


class TestLabelStructure:
    def test_serialisation_round_trip(self):
        tree = make_tree("random", 80, seed=3)
        scheme = FreedmanScheme()
        labels = scheme.encode(tree)
        for node, label in labels.items():
            restored = FreedmanLabel.from_bits(label.to_bits())
            assert restored.node_id == label.node_id == node
            assert restored.root_distance == label.root_distance
            assert restored.domination == label.domination
            assert restored.codewords == label.codewords
            assert restored.light_weights == label.light_weights
            assert restored.fragment_refs == label.fragment_refs
            assert restored.fragment_distances == label.fragment_distances
            assert restored.entry_skip == label.entry_skip
            assert restored.entry_kept == label.entry_kept
            assert restored.entry_pushed == label.entry_pushed
            assert restored.accumulators == label.accumulators

    def test_labels_are_distinct(self):
        tree = make_tree("random", 100, seed=1)
        labels = FreedmanScheme().encode(tree)
        assert len({label.to_bits().data for label in labels.values()}) == tree.n

    def test_fragment_refs_are_monotone(self):
        tree = make_tree("random", 200, seed=2)
        for label in FreedmanScheme().encode(tree).values():
            assert label.fragment_refs == sorted(label.fragment_refs)
            assert label.fragment_distances == sorted(label.fragment_distances)
            for ref in label.fragment_refs:
                assert 0 <= ref < len(label.fragment_distances)

    def test_exceptional_entries_store_nothing(self):
        tree = make_tree("random", 150, seed=4)
        labels = FreedmanScheme().encode(tree)
        skipped = sum(
            1
            for label in labels.values()
            for level, skip in enumerate(label.entry_skip)
            if skip and len(label.entry_kept[level]) == 0
        )
        assert skipped > 0  # the exceptional edge of some level is always hit

    def test_encoding_stats_populated(self):
        scheme = FreedmanScheme()
        scheme.encode(make_tree("random", 300, seed=5))
        stats = scheme.encoding_stats
        assert set(stats) == {
            "pushed_bits",
            "fat_subtrees",
            "thin_subtrees",
            "skipped_entries",
        }
        assert stats["skipped_entries"] > 0

    def test_field_breakdown_sums_to_total(self):
        tree = make_tree("random", 120, seed=6)
        for label in FreedmanScheme().encode(tree).values():
            breakdown = label.field_breakdown()
            assert sum(breakdown.values()) == label.bit_length()
            assert breakdown["truncated_distances"] >= 0
            assert breakdown["accumulators"] >= 0

    def test_distance_array_bits_below_total(self):
        tree = make_tree("random", 150, seed=7)
        for label in FreedmanScheme().encode(tree).values():
            assert label.distance_array_bits() <= label.bit_length()


class TestAblations:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"use_fragments": False},
            {"use_accumulators": False},
            {"binarize": False},
            {"use_fragments": False, "use_accumulators": False, "binarize": False},
        ],
    )
    def test_ablated_variants_remain_correct(self, kwargs):
        scheme = FreedmanScheme(**kwargs)
        for family in ("random", "caterpillar", "star", "path"):
            tree = make_tree(family, 70, seed=8)
            oracle = TreeDistanceOracle(tree)
            labels = scheme.encode(tree)
            rng = random.Random(0)
            for _ in range(120):
                u, v = rng.randrange(tree.n), rng.randrange(tree.n)
                assert scheme.distance(labels[u], labels[v]) == oracle.distance(u, v)

    def test_no_accumulators_means_no_pushed_bits(self):
        scheme = FreedmanScheme(use_accumulators=False)
        labels = scheme.encode(make_tree("random", 200, seed=9))
        assert scheme.encoding_stats["pushed_bits"] == 0
        assert all(
            all(pushed == 0 for pushed in label.entry_pushed) for label in labels.values()
        )

    def test_accumulators_shrink_truncated_entries(self):
        """On the adversarial (h, M)-family (x = M/2), hanging subtrees are fat
        enough for the Slack Lemma budget to be smaller than the entry, so
        bits really are pushed to dominated labels."""
        from repro.lowerbounds.hm_trees import (
            build_hm_tree,
            hm_parameter_count,
            subdivide_to_unweighted,
        )

        instance = build_hm_tree(5, 16, [8] * hm_parameter_count(5))
        tree, _ = subdivide_to_unweighted(instance.tree)
        with_acc = FreedmanScheme()
        without_acc = FreedmanScheme(use_accumulators=False)
        labels_with = with_acc.encode(tree)
        labels_without = without_acc.encode(tree)
        kept_with = sum(
            len(bits) for label in labels_with.values() for bits in label.entry_kept
        )
        kept_without = sum(
            len(bits) for label in labels_without.values() for bits in label.entry_kept
        )
        assert with_acc.encoding_stats["pushed_bits"] > 0
        assert without_acc.encoding_stats["pushed_bits"] == 0
        assert kept_with < kept_without


class TestCorrectnessEdgeCases:
    def test_single_and_two_node_trees(self):
        scheme = FreedmanScheme()
        one = scheme.encode(make_tree("path", 1))
        assert scheme.distance(one[0], one[0]) == 0
        two = scheme.encode(make_tree("path", 2))
        assert scheme.distance(two[0], two[1]) == 1

    def test_deep_path(self):
        tree = make_tree("path", 500)
        scheme = FreedmanScheme()
        oracle = TreeDistanceOracle(tree)
        labels = scheme.encode(tree)
        for u, v in [(0, 499), (250, 251), (0, 0), (100, 400), (499, 0)]:
            assert scheme.distance(labels[u], labels[v]) == oracle.distance(u, v)

    def test_wide_star(self):
        tree = make_tree("star", 500)
        scheme = FreedmanScheme()
        labels = scheme.encode(tree)
        assert scheme.distance(labels[0], labels[123]) == 1
        assert scheme.distance(labels[7], labels[123]) == 2

    def test_parse_is_inverse_of_to_bits(self):
        scheme = FreedmanScheme()
        labels = scheme.encode(make_tree("random", 40, seed=14))
        oracle = TreeDistanceOracle(make_tree("random", 40, seed=14))
        for u in (0, 5, 17):
            for v in (3, 22, 39):
                parsed_u = scheme.parse(labels[u].to_bits())
                parsed_v = scheme.parse(labels[v].to_bits())
                assert scheme.distance(parsed_u, parsed_v) == oracle.distance(u, v)

    @given(parent_array_trees(max_nodes=45))
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle_property(self, tree):
        scheme = FreedmanScheme()
        oracle = TreeDistanceOracle(tree)
        labels = scheme.encode(tree)
        rng = random.Random(11)
        for _ in range(40):
            u, v = rng.randrange(tree.n), rng.randrange(tree.n)
            assert scheme.distance(labels[u], labels[v]) == oracle.distance(u, v)

    @given(parent_array_trees(max_nodes=30))
    @settings(max_examples=20, deadline=None)
    def test_agrees_with_alstrup_property(self, tree):
        """Independent implementations must agree with each other."""
        freedman = FreedmanScheme()
        alstrup = AlstrupScheme()
        labels_f = freedman.encode(tree)
        labels_a = alstrup.encode(tree)
        for u in tree.nodes():
            for v in tree.nodes():
                assert freedman.distance(labels_f[u], labels_f[v]) == alstrup.distance(
                    labels_a[u], labels_a[v]
                )


class TestSizeBehaviour:
    def test_push_machinery_fires_on_adversarial_family(self):
        """On random trees at practical sizes the Slack Lemma budget almost
        always exceeds the entry length, so entries are stored in full.  On
        the (h, M) lower-bound family the budget is tight and bits are
        pushed; without fragments the effect also shows on balanced binary
        trees."""
        from repro.lowerbounds.hm_trees import (
            build_hm_tree,
            hm_parameter_count,
            subdivide_to_unweighted,
        )

        instance = build_hm_tree(4, 16, [8] * hm_parameter_count(4))
        tree, _ = subdivide_to_unweighted(instance.tree)
        scheme = FreedmanScheme()
        scheme.encode(tree)
        assert scheme.encoding_stats["pushed_bits"] > 0
        assert scheme.encoding_stats["fat_subtrees"] > 0

        no_fragments = FreedmanScheme(use_fragments=False)
        no_fragments.encode(make_tree("balanced_binary", 2047, seed=0))
        assert no_fragments.encoding_stats["pushed_bits"] > 0

    def test_growth_is_polylogarithmic(self):
        sizes = {}
        for n in (256, 1024, 4096):
            labels = FreedmanScheme().encode(make_tree("random", n, seed=13))
            sizes[n] = max(label.bit_length() for label in labels.values())
        assert sizes[4096] <= sizes[256] * (math.log2(4096) / math.log2(256)) ** 2 * 1.5
