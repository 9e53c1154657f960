"""Experiment A-ablation: the ``freedman-no-*`` specs of README "Scheme specs".

Compares the full Freedman scheme against variants with fragments,
accumulators or the binarization transform disabled, on both a random tree
and the adversarial (h, M) instance where the accumulator machinery fires.
"""

from __future__ import annotations

import pytest

from repro.core.freedman import FreedmanScheme
from repro.generators.workloads import make_tree
from repro.lowerbounds.hm_trees import (
    build_hm_tree,
    hm_parameter_count,
    subdivide_to_unweighted,
)

VARIANTS = {
    "full": {},
    "no-fragments": {"use_fragments": False},
    "no-accumulators": {"use_accumulators": False},
    "no-binarize": {"binarize": False},
}


def _workloads():
    random_tree = make_tree("random", 2048, seed=29)
    instance = build_hm_tree(5, 16, [8] * hm_parameter_count(5))
    adversarial, _ = subdivide_to_unweighted(instance.tree)
    return {"random-2048": random_tree, "hm-adversarial": adversarial}


WORKLOADS = _workloads()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_freedman_ablation(benchmark, variant, workload):
    tree = WORKLOADS[workload]
    scheme = FreedmanScheme(**VARIANTS[variant])

    labels = benchmark(scheme.encode, tree)

    sizes = [label.bit_length() for label in labels.values()]
    cores = [label.distance_array_bits() for label in labels.values()]
    benchmark.extra_info.update(
        {
            "experiment": "A-ablation",
            "variant": variant,
            "workload": workload,
            "n": tree.n,
            "max_label_bits": max(sizes),
            "avg_label_bits": round(sum(sizes) / len(sizes), 1),
            "max_core_bits": max(cores),
            "pushed_bits": scheme.encoding_stats["pushed_bits"],
        }
    )
