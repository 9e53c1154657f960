"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper, or one
measurement README "Benchmarks and CI" lists, and attaches the quantities the paper reports (label sizes in bits, the matching
bound formula) to ``benchmark.extra_info`` so they appear in the
pytest-benchmark JSON/therminal output alongside the timings.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pytest

from repro.generators.workloads import make_tree, random_pairs
from repro.oracles.exact_oracle import TreeDistanceOracle


@pytest.fixture(scope="session")
def benchmark_tree():
    """The default workload tree shared by most benchmarks."""
    return make_tree("random", 1024, seed=7)


@pytest.fixture(scope="session")
def benchmark_oracle(benchmark_tree):
    """Ground-truth oracle for the default workload tree."""
    return TreeDistanceOracle(benchmark_tree)


@pytest.fixture(scope="session")
def benchmark_pairs(benchmark_tree):
    """Query workload for the default tree."""
    return random_pairs(benchmark_tree, 200, seed=3)
