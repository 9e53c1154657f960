"""Shared hypothesis strategies and representative trees for the test suite.

The strategies are not imported from ``tests/conftest.py`` (``from conftest
import ...`` breaks as soon as pytest's rootdir puts a different
``conftest`` module first on ``sys.path``); they live in this plain
module beside the tests, like ``bitio_reference`` and
``freedman_reference``: ``from strategies import parent_array_trees``.

Importing this module requires ``hypothesis``, which no runtime path of the
library needs.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.generators.random_trees import (
    random_binary_tree,
    random_caterpillar,
    random_prufer_tree,
    random_recursive_tree,
)
from repro.generators.structured import (
    balanced_binary_tree,
    broom_tree,
    caterpillar_tree,
    path_tree,
    spider_tree,
    star_tree,
)
from repro.trees.tree import RootedTree

__all__ = [
    "parent_array_trees",
    "weighted_trees",
    "monotone_sequences",
    "STRUCTURED_FAMILIES",
]


@st.composite
def parent_array_trees(draw, max_nodes: int = 40) -> RootedTree:
    """Arbitrary rooted trees drawn as increasing parent arrays."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    parents: list[int | None] = [None]
    for node in range(1, n):
        parents.append(draw(st.integers(min_value=0, max_value=node - 1)))
    return RootedTree(parents)


@st.composite
def weighted_trees(draw, max_nodes: int = 30, max_weight: int = 4) -> RootedTree:
    """Arbitrary rooted trees with small non-negative edge weights."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    parents: list[int | None] = [None]
    weights = [0]
    for node in range(1, n):
        parents.append(draw(st.integers(min_value=0, max_value=node - 1)))
        weights.append(draw(st.integers(min_value=0, max_value=max_weight)))
    return RootedTree(parents, weights)


@st.composite
def monotone_sequences(draw, max_length: int = 40, max_value: int = 500) -> list[int]:
    """Non-decreasing integer sequences."""
    values = draw(
        st.lists(st.integers(min_value=0, max_value=max_value), max_size=max_length)
    )
    return sorted(values)


# small representative trees used by many plain (non-hypothesis) tests
STRUCTURED_FAMILIES = {
    "single": lambda: RootedTree([None]),
    "pair": lambda: RootedTree([None, 0]),
    "path-17": lambda: path_tree(17),
    "star-17": lambda: star_tree(17),
    "caterpillar-20": lambda: caterpillar_tree(20),
    "balanced-31": lambda: balanced_binary_tree(31),
    "broom-24": lambda: broom_tree(24),
    "spider-22": lambda: spider_tree(22, legs=4),
    "random-33": lambda: random_prufer_tree(33, seed=5),
    "random-binary-29": lambda: random_binary_tree(29, seed=3),
    "random-recursive-41": lambda: random_recursive_tree(41, seed=9),
    "random-caterpillar-27": lambda: random_caterpillar(27, seed=11),
}
