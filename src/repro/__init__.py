"""repro — reproduction of "Optimal Distance Labeling Schemes for Trees".

Freedman, Gawrychowski, Nicholson, Weimann (PODC 2017, arXiv:1608.00212).

The canonical public API lives in :mod:`repro.api` and is re-exported here:
one :class:`DistanceIndex` handle per encoded tree, string scheme specs,
typed :class:`QueryResult` answers and the multi-tree :class:`IndexCatalog`.

Quick start::

    from repro import DistanceIndex, random_prufer_tree

    tree = random_prufer_tree(1000, seed=7)
    index = DistanceIndex.build(tree, "freedman")
    print(index.query(3, 42).value)       # exact tree distance
    index.save("labels.bin")              # ship the labels, discard the tree

Research surface (stable, but secondary to :mod:`repro.api`):

* :class:`repro.trees.RootedTree` and the builders in :mod:`repro.trees`;
* the scheme classes in :mod:`repro.core` (:class:`FreedmanScheme` is the
  paper's 1/4 log² n contribution) for direct label-level experiments;
* the lower-bound instance families in :mod:`repro.lowerbounds`;
* the measurement harness in :mod:`repro.analysis`;
* the packed-store internals in :mod:`repro.store` (wrapped by
  :class:`DistanceIndex`; ``repro-labels encode`` / ``query`` / ``catalog``
  on the command line).
"""

from repro.api import (
    DistanceIndex,
    IndexCatalog,
    QueryResult,
    SpecError,
    available_specs,
    format_spec,
    make_scheme_from_spec,
    parse_spec,
    scheme_spec,
)
from repro.core import (
    AdjacencyScheme,
    AlstrupScheme,
    ApproximateScheme,
    FreedmanScheme,
    HLDScheme,
    KDistanceScheme,
    LevelAncestorScheme,
    NaiveListScheme,
    SeparatorScheme,
    make_any_scheme,
    make_scheme,
)
from repro.generators import (
    balanced_binary_tree,
    caterpillar_tree,
    path_tree,
    random_prufer_tree,
    star_tree,
)
from repro.oracles import TreeDistanceOracle
from repro.trees import RootedTree, tree_from_edges, tree_from_parents

__version__ = "1.1.0"


__all__ = [
    # canonical API (repro.api)
    "DistanceIndex",
    "IndexCatalog",
    "QueryResult",
    "SpecError",
    "parse_spec",
    "format_spec",
    "scheme_spec",
    "make_scheme_from_spec",
    "available_specs",
    # trees and oracles
    "RootedTree",
    "tree_from_parents",
    "tree_from_edges",
    "TreeDistanceOracle",
    # scheme classes (research surface)
    "FreedmanScheme",
    "AlstrupScheme",
    "HLDScheme",
    "SeparatorScheme",
    "NaiveListScheme",
    "KDistanceScheme",
    "ApproximateScheme",
    "AdjacencyScheme",
    "LevelAncestorScheme",
    "make_scheme",
    "make_any_scheme",
    # tree generators
    "random_prufer_tree",
    "path_tree",
    "star_tree",
    "caterpillar_tree",
    "balanced_binary_tree",
    "__version__",
]
