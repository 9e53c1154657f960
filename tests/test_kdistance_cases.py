"""Query-configuration coverage for the k-distance decoder (paper Section 4.3).

Each test constructs a tree in which a specific decoder branch must fire and
verifies the answer against the oracle.  The branches follow the case
analysis of Section 4.3: matched nearest common significant ancestor
(same/different child), ancestor queries, the mixed top case with and
without a capped alpha, the both-top case with and without Lemma 4.5, the
root-heavy-path case, and the "further than k" outcomes.
"""

from __future__ import annotations

from repro.core.kdistance import COMPACT, KDistanceScheme
from repro.generators.structured import path_tree, star_tree
from repro.oracles.exact_oracle import TreeDistanceOracle
from repro.trees.tree import RootedTree


def check_all_pairs(tree: RootedTree, k: int, mode: str | None = None) -> KDistanceScheme:
    scheme = KDistanceScheme(k) if mode is None else KDistanceScheme(k, mode=mode)
    oracle = TreeDistanceOracle(tree)
    labels = scheme.encode(tree)
    for u in tree.nodes():
        for v in tree.nodes():
            expected = oracle.distance(u, v)
            expected = expected if expected <= k else None
            got = scheme.bounded_distance(labels[u], labels[v])
            assert got == expected, (u, v, expected, got)
    return scheme


class TestCase1IdenticalNodes:
    def test_zero_distance(self):
        tree = path_tree(10)
        scheme = KDistanceScheme(2)
        labels = scheme.encode(tree)
        assert scheme.bounded_distance(labels[4], labels[4]) == 0


class TestCase2MatchedSameChild:
    def test_fig6_configuration(self):
        """u and v hang off the same heavy path below a common significant
        ancestor (the Figure 6 picture)."""
        #        0
        #        |
        #        1            (heavy path 0-1-2-3)
        #       / \
        #      2   4          4 and the subtree below it are light
        #      |   |
        #      3   5
        tree = RootedTree([None, 0, 1, 2, 1, 4])
        check_all_pairs(tree, k=4)


class TestCase3MatchedDifferentChildren:
    def test_nca_is_the_common_significant_ancestor(self):
        """u and v sit in different light subtrees of the same node."""
        #          0
        #        / | \
        #       1  2  3       (star-ish: every child is light except one)
        #       |     |
        #       4     5
        tree = RootedTree([None, 0, 0, 0, 1, 3])
        check_all_pairs(tree, k=4)

    def test_star(self):
        check_all_pairs(star_tree(12), k=2)


class TestCase4AncestorQueries:
    def test_ancestor_within_k(self):
        tree = path_tree(12)
        check_all_pairs(tree, k=6)

    def test_ancestor_beyond_k(self):
        tree = path_tree(12)
        scheme = KDistanceScheme(3)
        labels = scheme.encode(tree)
        assert scheme.bounded_distance(labels[0], labels[11]) is None


class TestCase5MixedTop:
    def test_one_side_top_other_not(self):
        """A long heavy path: one endpoint hangs deep on the path (its top
        significant ancestor is on the path, far from the head), the other
        hangs near the head (its chain still reaches above the head)."""
        n = 40
        parents: list[int | None] = [None] + [i for i in range(n - 1)]  # path 0..39
        # a pendant node hanging near the bottom (deep, alpha gets capped)
        parents.append(35)  # node 40
        # a pendant node hanging near the top (its chain covers the head)
        parents.append(2)  # node 41
        tree = RootedTree(parents)
        check_all_pairs(tree, k=5, mode=COMPACT)

    def test_capped_alpha_forces_far_answer(self):
        n = 60
        parents: list[int | None] = [None] + [i for i in range(n - 1)]
        parents.append(55)  # node 60 deep pendant
        parents.append(1)   # node 61 shallow pendant
        tree = RootedTree(parents)
        scheme = KDistanceScheme(4, mode=COMPACT)
        labels = scheme.encode(tree)
        oracle = TreeDistanceOracle(tree)
        assert oracle.distance(60, 61) > 4
        assert scheme.bounded_distance(labels[60], labels[61]) is None


class TestCase6And7BothTops:
    def test_both_tops_uncapped(self):
        """Two pendants near the head of a short heavy path."""
        parents: list[int | None] = [None, 0, 1, 2, 3, 4]
        parents.append(1)  # node 6
        parents.append(3)  # node 7
        tree = RootedTree(parents)
        check_all_pairs(tree, k=5, mode=COMPACT)

    def test_both_tops_capped_lemma_4_5(self):
        """Deep path, small k: both alphas are capped so the decoder must use
        the position-mod-k and 2-approximation tables of Lemma 4.5."""
        tree = path_tree(300)
        scheme = check_all_pairs(tree, k=3, mode=COMPACT)
        labels = scheme.encode(tree)
        capped = [label for label in labels.values() if label.alpha == 2 * 3 + 1]
        assert len(capped) > 100  # the machinery really was exercised

    def test_simple_mode_stores_exact_alpha(self):
        tree = path_tree(120)
        scheme = KDistanceScheme(40, mode="simple")
        labels = scheme.encode(tree)
        assert all(not label.compact for label in labels.values())
        check_all_pairs(tree, k=40, mode="simple")


class TestCase8RootHeavyPath:
    def test_no_common_significant_ancestor(self):
        """Both endpoints lie on (or hang just off) the root heavy path with
        no common significant ancestor: NCH is the root path itself."""
        #   0 - 1 - 2 - 3 - 4 - 5 - 6 - 7     (root heavy path)
        #       |           |
        #       8           9
        parents: list[int | None] = [None, 0, 1, 2, 3, 4, 5, 6, 1, 4]
        tree = RootedTree(parents)
        check_all_pairs(tree, k=8)


class TestCase9FarApart:
    def test_far_nodes_report_none(self):
        tree = path_tree(200)
        scheme = KDistanceScheme(2)
        labels = scheme.encode(tree)
        assert scheme.bounded_distance(labels[0], labels[199]) is None
        assert scheme.bounded_distance(labels[10], labels[100]) is None

    def test_boundary_exactly_k(self):
        tree = path_tree(50)
        scheme = KDistanceScheme(7)
        labels = scheme.encode(tree)
        assert scheme.bounded_distance(labels[0], labels[7]) == 7
        assert scheme.bounded_distance(labels[0], labels[8]) is None
