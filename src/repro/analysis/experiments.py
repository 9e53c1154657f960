"""Experiment drivers, one per table or figure of the paper.

Each function returns a list of flat row dictionaries; the benchmarks wrap
them in pytest-benchmark fixtures (README "Benchmarks and CI") and the
CLI prints them with :func:`repro.analysis.reporting.format_table`.
"""

from __future__ import annotations

import math
import random

from repro.analysis.label_stats import (
    measure_approximate_scheme,
    measure_bounded_scheme,
    measure_scheme,
)
from repro.core.freedman import FreedmanScheme
from repro.core.kdistance import KDistanceScheme
from repro.core.level_ancestor import LevelAncestorScheme
from repro.core.registry import make_scheme_from_spec
from repro.generators.workloads import make_tree, random_pairs
from repro.lowerbounds.bounds import (
    alstrup_upper_bound_bits,
    approx_bound_bits,
    exact_lower_bound_bits,
    exact_upper_bound_bits,
    kdistance_large_bound_bits,
    kdistance_small_upper_bound_bits,
)
from repro.lowerbounds.hm_trees import (
    build_hm_tree,
    lemma_2_3_bound_bits,
    random_hm_parameters,
    subdivide_to_unweighted,
)
from repro.lowerbounds.regular_trees import (
    build_regular_tree,
    common_labels_upper_bound,
    exact_pairwise_common_sum,
    lemma_4_1_total_bound,
    regular_tree_leaf_count,
)
from repro.oracles.exact_oracle import TreeDistanceOracle
from repro.trees.collapsed import CollapsedTree
from repro.trees.heavy_path import HeavyPathDecomposition
from repro.universal.goldberg import goldberg_livshits_log2_size, lemma_3_6_size_bound
from repro.universal.universal_tree import universal_tree_for_small_n

#: default exact schemes as spec strings (see :func:`repro.core.registry.parse_spec`)
DEFAULT_EXACT_SCHEMES = (
    "freedman",
    "alstrup",
    "hld-fixed",
    "separator",
)


def _make(scheme):
    """Resolve one schemes-list entry: spec string, factory or instance."""
    if isinstance(scheme, str):
        return make_scheme_from_spec(scheme)
    return scheme() if callable(scheme) else scheme


def run_table1_exact(
    sizes: list[int] | None = None,
    families: list[str] | None = None,
    queries: int = 200,
    seed: int = 0,
    schemes=DEFAULT_EXACT_SCHEMES,
) -> list[dict]:
    """Experiment T1-exact: measured label sizes of the exact schemes."""
    sizes = sizes or [256, 1024, 4096]
    families = families or ["random", "caterpillar", "balanced_binary"]
    rows: list[dict] = []
    for family in families:
        for n in sizes:
            tree = make_tree(family, n, seed)
            oracle = TreeDistanceOracle(tree)
            pairs = random_pairs(tree, queries, seed)
            for entry in schemes:
                scheme = _make(entry)
                measurement = measure_scheme(scheme, tree, pairs, family, oracle)
                row = measurement.as_row()
                row["paper_upper_quarter"] = round(exact_upper_bound_bits(n), 1)
                row["paper_upper_half"] = round(alstrup_upper_bound_bits(n), 1)
                row["paper_lower"] = round(exact_lower_bound_bits(n), 1)
                rows.append(row)
    return rows


def run_table1_kdistance(
    sizes: list[int] | None = None,
    ks: list[int] | None = None,
    family: str = "random",
    queries: int = 200,
    seed: int = 0,
) -> list[dict]:
    """Experiment T1-kdist-small / T1-kdist-large."""
    sizes = sizes or [1024, 4096]
    rows: list[dict] = []
    for n in sizes:
        tree = make_tree(family, n, seed)
        oracle = TreeDistanceOracle(tree)
        pairs = random_pairs(tree, queries, seed)
        log_n = math.log2(n)
        k_values = ks or [1, 2, 4, 8, int(log_n), 4 * int(log_n), 16 * int(log_n)]
        for k in k_values:
            scheme = _make(f"k-distance:k={k}")
            measurement = measure_bounded_scheme(scheme, tree, pairs, family, oracle)
            row = measurement.as_row()
            if k < log_n:
                row["paper_bound"] = round(kdistance_small_upper_bound_bits(n, k), 1)
                row["regime"] = "k<log n"
            else:
                row["paper_bound"] = round(kdistance_large_bound_bits(n, k), 1)
                row["regime"] = "k>=log n"
            rows.append(row)
    return rows


def run_table1_approx(
    sizes: list[int] | None = None,
    epsilons: list[float] | None = None,
    family: str = "random",
    queries: int = 200,
    seed: int = 0,
) -> list[dict]:
    """Experiment T1-approx: (1+eps)-approximate label sizes and stretch."""
    sizes = sizes or [1024, 4096]
    epsilons = epsilons or [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125]
    rows: list[dict] = []
    for n in sizes:
        tree = make_tree(family, n, seed)
        oracle = TreeDistanceOracle(tree)
        pairs = random_pairs(tree, queries, seed)
        for eps in epsilons:
            scheme = _make(f"approximate:epsilon={eps!r}")
            measurement = measure_approximate_scheme(scheme, tree, pairs, family, oracle)
            row = measurement.as_row()
            row["paper_bound"] = round(approx_bound_bits(n, eps), 1)
            rows.append(row)
    return rows


def run_fig1_heavy_paths(
    sizes: list[int] | None = None,
    families: list[str] | None = None,
    seed: int = 0,
) -> list[dict]:
    """Experiment F1-hld: structural bounds of the decomposition and C(T)."""
    sizes = sizes or [256, 1024, 4096, 16384]
    families = families or ["random", "path", "star", "caterpillar", "balanced_binary"]
    rows: list[dict] = []
    for family in families:
        for n in sizes:
            tree = make_tree(family, n, seed)
            decomposition = HeavyPathDecomposition(tree)
            collapsed = CollapsedTree(decomposition)
            rows.append(
                {
                    "family": family,
                    "n": n,
                    "heavy_paths": decomposition.path_count(),
                    "max_light_depth": decomposition.max_light_depth(),
                    "collapsed_height": collapsed.height(),
                    "log2_n": round(math.log2(n), 2),
                }
            )
    return rows


def run_fig2_hm_trees(
    hs: list[int] | None = None,
    ms: list[int] | None = None,
    seed: int = 0,
) -> list[dict]:
    """Experiment F2-hm: measured labels on subdivided (h, M)-trees vs Lemma 2.3."""
    hs = hs or [2, 3, 4, 5]
    ms = ms or [4, 16, 64]
    rows: list[dict] = []
    for h in hs:
        for M in ms:
            parameters = random_hm_parameters(h, M, seed)
            instance = build_hm_tree(h, M, parameters)
            unweighted, image = subdivide_to_unweighted(instance.tree)
            scheme = FreedmanScheme()
            labels = scheme.encode(unweighted)
            leaf_nodes = [image[leaf] for leaf in instance.leaves]
            max_bits = max(labels[node].bit_length() for node in leaf_nodes)
            oracle = TreeDistanceOracle(unweighted)
            rng = random.Random(seed)
            mismatches = 0
            for _ in range(100):
                u, v = rng.choice(leaf_nodes), rng.choice(leaf_nodes)
                if scheme.distance(labels[u], labels[v]) != oracle.distance(u, v):
                    mismatches += 1
            rows.append(
                {
                    "h": h,
                    "M": M,
                    "weighted_nodes": instance.tree.n,
                    "unweighted_nodes": unweighted.n,
                    "leaf_label_max_bits": max_bits,
                    "lemma_2_3_lower_bits": round(lemma_2_3_bound_bits(h, M), 1),
                    "mismatches": mismatches,
                }
            )
    return rows


def run_fig4_universal_tree(max_n: int = 6) -> list[dict]:
    """Experiment F4-universal: Lemma 3.6 construction sizes vs the bounds."""
    rows: list[dict] = []
    scheme = LevelAncestorScheme()
    for n in range(2, max_n + 1):
        result = universal_tree_for_small_n(n, scheme)
        # the label length over all trees on <= n nodes
        max_label_bits = 0
        from repro.universal.universal_tree import all_rooted_trees_up_to

        for tree in all_rooted_trees_up_to(n):
            labels = scheme.encode(tree)
            max_label_bits = max(
                max_label_bits, max(l.bit_length() for l in labels.values())
            )
        rows.append(
            {
                "n": n,
                "labels_observed": result.label_count,
                "universal_tree_size": result.tree.n,
                "cycles_cut": result.cycles_cut,
                "lemma_3_6_bound": lemma_3_6_size_bound(max_label_bits),
                "max_parent_label_bits": max_label_bits,
                "goldberg_livshits_log2": round(goldberg_livshits_log2_size(n), 2),
            }
        )
    return rows


def run_fig5_regular_trees(
    h: int = 2, d: int = 2, ks: list[int] | None = None
) -> list[dict]:
    """Experiment F5-regular: Lemma 4.1 counting plus labels on an instance."""
    ks = ks or [1, 2]
    rows: list[dict] = []
    for k in ks:
        x = [1 + (i % h) for i in range(k)]
        tree = build_regular_tree(x, h, d)
        scheme = KDistanceScheme(2 * k)
        labels = scheme.encode(tree)
        max_bits = max(label.bit_length() for label in labels.values())
        rows.append(
            {
                "k": k,
                "h": h,
                "d": d,
                "leaves": regular_tree_leaf_count(h, d, k),
                "nodes": tree.n,
                "kdistance_label_max_bits": max_bits,
                "lemma_4_1_bound": round(lemma_4_1_total_bound(h, d, k), 1),
                "exact_pairwise_sum": exact_pairwise_common_sum(h, d, k),
                "single_pair_bound": common_labels_upper_bound(x, x, h, d),
            }
        )
    return rows
