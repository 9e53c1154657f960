"""Rooted-tree substrate.

Everything in the paper operates on rooted trees: the labeling schemes, the
heavy path decomposition of Section 2, the collapsed tree of Fig. 1, the
transform that reduces arbitrary trees to binary trees with 0/1 edge weights
whose queries touch only leaves, and the lower-bound instance families.

This package provides:

* :class:`~repro.trees.tree.RootedTree` — an immutable rooted tree with
  optional non-negative integer edge weights, its depths, subtree sizes
  and preorder/postorder orders,
* builders from parent arrays and edge lists,
* the Section 2 transform (leaf attachment + binarization),
* the heavy path decomposition under the paper's ``>= |T|/2`` rule,
* the collapsed tree C(T) with child ordering, exceptional edges, the
  domination order used by Lemma 3.1 and the one root-path walk every
  heavy-path label reads its levels from.
"""

from repro.trees.tree import RootedTree
from repro.trees.builder import tree_from_edges, tree_from_parents
from repro.trees.transform import TransformResult, attach_leaves, binarize, prepare_for_leaf_queries
from repro.trees.heavy_path import HeavyPathDecomposition
from repro.trees.collapsed import CollapsedTree

__all__ = [
    "RootedTree",
    "tree_from_parents",
    "tree_from_edges",
    "TransformResult",
    "attach_leaves",
    "binarize",
    "prepare_for_leaf_queries",
    "HeavyPathDecomposition",
    "CollapsedTree",
]
