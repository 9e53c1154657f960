"""Shared fixtures for the test suite.

The hypothesis strategies live in ``tests/strategies.py``; import them from
there (``from strategies import parent_array_trees``) rather than from
this conftest, so they resolve identically under any pytest rootdir.
"""

from __future__ import annotations

import os
import sys

# allow running the tests without installing the package first
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pytest

from repro.generators.random_trees import random_prufer_tree
from strategies import STRUCTURED_FAMILIES
from repro.trees.tree import RootedTree


@pytest.fixture(params=sorted(STRUCTURED_FAMILIES))
def any_tree(request) -> RootedTree:
    """One representative tree per family."""
    return STRUCTURED_FAMILIES[request.param]()


@pytest.fixture
def medium_random_tree() -> RootedTree:
    """A moderately sized random tree shared by the scheme tests."""
    return random_prufer_tree(150, seed=7)
