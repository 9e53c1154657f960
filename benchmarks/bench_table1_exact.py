"""Experiment T1-exact: the "Exact" row of the paper's summary table.

For every exact scheme the benchmark measures encoding time and records the
maximum/average label size in bits next to the paper's reference curves
(1/4 log² n for the paper's scheme, 1/2 log² n for Alstrup et al., the
1/4 log² n − O(log n) lower bound); README "Benchmarks and CI" says how
the benchmarks run.
"""

from __future__ import annotations

import pytest

from repro.core.alstrup import AlstrupScheme
from repro.core.freedman import FreedmanScheme
from repro.core.hld import HLDScheme
from repro.core.separator import SeparatorScheme
from repro.generators.workloads import make_tree
from repro.lowerbounds.bounds import (
    alstrup_upper_bound_bits,
    exact_lower_bound_bits,
    exact_upper_bound_bits,
)

SCHEMES = {
    "freedman": FreedmanScheme,
    "alstrup": AlstrupScheme,
    "hld-fixed": HLDScheme,
    "separator": SeparatorScheme,
}

SIZES = [256, 1024, 4096]
FAMILY = "random"


@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
@pytest.mark.parametrize("n", SIZES)
def test_exact_label_sizes(benchmark, scheme_name, n):
    tree = make_tree(FAMILY, n, seed=7)
    scheme = SCHEMES[scheme_name]()

    labels = benchmark(scheme.encode, tree)

    sizes = [label.bit_length() for label in labels.values()]
    core_sizes = [
        label.distance_array_bits()
        for label in labels.values()
        if hasattr(label, "distance_array_bits")
    ]
    benchmark.extra_info.update(
        {
            "experiment": "T1-exact",
            "family": FAMILY,
            "n": n,
            "scheme": scheme_name,
            "max_label_bits": max(sizes),
            "avg_label_bits": round(sum(sizes) / len(sizes), 1),
            "core_max_bits": max(core_sizes) if core_sizes else None,
            "paper_quarter_log2": round(exact_upper_bound_bits(n), 1),
            "paper_half_log2": round(alstrup_upper_bound_bits(n), 1),
            "paper_lower_bound": round(exact_lower_bound_bits(n), 1),
        }
    )
