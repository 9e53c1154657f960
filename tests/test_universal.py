"""Tests for the universal-tree machinery (Section 3.5, Lemma 3.6/3.7)."""

import math

from repro.core.level_ancestor import LevelAncestorScheme
from repro.generators.random_trees import random_prufer_tree
from repro.generators.structured import balanced_binary_tree, caterpillar_tree, path_tree, star_tree
from repro.trees.tree import RootedTree
from repro.universal.embedding import embeds_as_rooted_subtree
from tree_extras import embedding_map
from repro.universal.goldberg import (
    goldberg_livshits_log2_size,
    lemma_3_6_size_bound,
    level_ancestor_lower_bound_bits,
    minimal_universal_tree_size_brute_force,
)
from repro.universal.universal_tree import (
    all_rooted_trees,
    all_rooted_trees_up_to,
    universal_tree_for_small_n,
    universal_tree_from_parent_labels,
)


class TestRootedTreeEnumeration:
    def test_counts(self):
        # increasing parent arrays: (n-1)! of them
        assert len(list(all_rooted_trees(1))) == 1
        assert len(list(all_rooted_trees(2))) == 1
        assert len(list(all_rooted_trees(3))) == 2
        assert len(list(all_rooted_trees(4))) == 6
        assert len(list(all_rooted_trees_up_to(4))) == 10

    def test_all_isomorphism_classes_present(self):
        """For n = 4 there are 4 rooted tree shapes; all must appear."""
        shapes = set()
        for tree in all_rooted_trees(4):
            degree_profile = tuple(sorted(tree.degree(v) for v in tree.nodes()))
            depth_profile = tuple(sorted(tree.depth(v) for v in tree.nodes()))
            shapes.add((degree_profile, depth_profile))
        assert len(shapes) == 4


class TestEmbedding:
    def test_path_embeds_in_longer_path(self):
        assert embeds_as_rooted_subtree(path_tree(3), path_tree(6))
        assert not embeds_as_rooted_subtree(path_tree(6), path_tree(3))

    def test_star_embedding_requires_degree(self):
        assert embeds_as_rooted_subtree(star_tree(4), star_tree(7))
        assert not embeds_as_rooted_subtree(star_tree(7), star_tree(4))
        assert not embeds_as_rooted_subtree(star_tree(4), path_tree(10))

    def test_embeds_into_itself(self):
        tree = random_prufer_tree(12, seed=1)
        assert embeds_as_rooted_subtree(tree, tree)

    def test_subtree_embeds_in_whole(self):
        tree = balanced_binary_tree(15)
        sub = balanced_binary_tree(7)
        assert embeds_as_rooted_subtree(sub, tree)

    def test_embedding_map_is_consistent(self):
        small = caterpillar_tree(6)
        big = caterpillar_tree(14)
        mapping = embedding_map(small, big)
        assert mapping is not None
        assert len(set(mapping.values())) == small.n
        for node in small.nodes():
            parent = small.parent(node)
            if parent is not None:
                assert big.parent(mapping[node]) == mapping[parent]

    def test_embedding_map_none_when_impossible(self):
        assert embedding_map(star_tree(5), path_tree(8)) is None


class TestLemma36Construction:
    def test_handles_plain_forest_of_chains(self):
        pairs = [("a", None), ("b", "a"), ("c", "b"), ("x", None), ("y", "x")]
        result = universal_tree_from_parent_labels(pairs)
        assert result.cycles_cut == 0
        assert result.label_count == 5
        assert result.tree.n == 6  # labels + global root

    def test_cuts_cycles_and_duplicates(self):
        # a 3-cycle of labels plus a pendant label
        pairs = [("a", "b"), ("b", "c"), ("c", "a"), ("d", "a")]
        result = universal_tree_from_parent_labels(pairs)
        assert result.cycles_cut == 1
        # component of 4 labels duplicated => 8 nodes + global root
        assert result.tree.n == 9
        # the result is a tree by construction (RootedTree validates it)

    def test_small_n_universal_tree_contains_every_tree(self):
        for n in (2, 3, 4, 5):
            result = universal_tree_for_small_n(n)
            for tree in all_rooted_trees_up_to(n):
                assert embeds_as_rooted_subtree(tree, result.tree), n

    def test_size_respects_lemma_3_6_bound(self):
        scheme = LevelAncestorScheme()
        for n in (2, 3, 4, 5):
            result = universal_tree_for_small_n(n, scheme)
            max_bits = 0
            for tree in all_rooted_trees_up_to(n):
                labels = scheme.encode(tree)
                max_bits = max(max_bits, max(l.bit_length() for l in labels.values()))
            assert result.tree.n <= lemma_3_6_size_bound(max_bits)
            # and it cannot be smaller than the number of distinct labels
            assert result.tree.n >= result.label_count


class TestGoldbergFormulas:
    def test_log_size_formula(self):
        assert goldberg_livshits_log2_size(2) >= 0
        assert goldberg_livshits_log2_size(1 << 16) > goldberg_livshits_log2_size(1 << 8)

    def test_level_ancestor_lower_bound_shape(self):
        # ~ 1/2 log^2 n for large n
        n = 1 << 20
        bound = level_ancestor_lower_bound_bits(n)
        assert 0.5 * 20 * 20 - 20 * math.log2(20) - 1 <= bound <= 0.5 * 20 * 20

    def test_lemma_3_6_size_bound(self):
        assert lemma_3_6_size_bound(3) == 17

    def test_brute_force_minimal_universal_tree(self):
        # trees on <= 3 nodes: path P3 and star S3 both embed in the 4-node
        # "chair" tree but not in any 3-node tree, so the minimum is 4
        assert minimal_universal_tree_size_brute_force(3, max_size=5) == 4

    def test_separation_between_distance_and_level_ancestor(self):
        """Theorem 1.1 vs Theorem 1.2: for large n the distance upper bound
        drops below the level-ancestor lower bound — the separation that is
        the paper's headline."""
        from repro.lowerbounds.bounds import exact_upper_bound_bits

        n = 1 << 64
        assert exact_upper_bound_bits(n) < level_ancestor_lower_bound_bits(n)
