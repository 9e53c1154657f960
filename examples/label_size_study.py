"""Reproduce the paper's summary table empirically (label-size study).

Sweeps the exact, k-distance and approximate schemes over tree sizes and
prints measured label sizes next to the bound formulas from the paper —
the same drivers the ``bench_table1_*`` benchmarks run (README
"Benchmarks and CI").

Run with::

    python examples/label_size_study.py            # moderate sizes
    python examples/label_size_study.py --large    # adds n = 16384
"""

from __future__ import annotations

import sys

from repro.analysis.experiments import (
    run_table1_approx,
    run_table1_exact,
    run_table1_kdistance,
)
from repro.analysis.reporting import format_table


def main() -> None:
    large = "--large" in sys.argv
    sizes = [256, 1024, 4096] + ([16384] if large else [])

    print("== Table 1, row 'Exact': measured label sizes (bits) ==")
    rows = run_table1_exact(sizes=sizes, families=["random"], queries=100)
    print(
        format_table(
            rows,
            columns=[
                "scheme", "n", "max_bits", "avg_bits", "core_max_bits",
                "paper_upper_quarter", "paper_upper_half", "mismatches",
            ],
        )
    )

    print("\n== Table 1, rows 'k-distance' ==")
    rows = run_table1_kdistance(sizes=sizes[:2], queries=100)
    print(
        format_table(
            rows,
            columns=["scheme", "n", "k", "regime", "max_bits", "paper_bound", "mismatches"],
        )
    )

    print("\n== Table 1, row 'Approximate' ==")
    rows = run_table1_approx(sizes=sizes[:2], queries=100)
    print(
        format_table(
            rows,
            columns=["scheme", "n", "eps", "max_bits", "paper_bound", "worst_ratio", "mismatches"],
        )
    )


if __name__ == "__main__":
    main()
