"""Measurement harness: label sizes, query latency, experiment drivers.

The functions here are shared between the pytest-benchmark harnesses in
``benchmarks/`` (README "Benchmarks and CI"), the CLI (``repro-labels``)
and the examples, so that every reported figure comes from one code path.
"""

from repro.analysis.label_stats import LabelMeasurement, measure_scheme
from repro.analysis.experiments import (
    run_fig1_heavy_paths,
    run_fig2_hm_trees,
    run_fig4_universal_tree,
    run_fig5_regular_trees,
    run_table1_approx,
    run_table1_exact,
    run_table1_kdistance,
)
from repro.analysis.reporting import format_table

__all__ = [
    "LabelMeasurement",
    "measure_scheme",
    "run_table1_exact",
    "run_table1_kdistance",
    "run_table1_approx",
    "run_fig1_heavy_paths",
    "run_fig2_hm_trees",
    "run_fig4_universal_tree",
    "run_fig5_regular_trees",
    "format_table",
]
