"""Nearest-common-ancestor machinery.

The paper's schemes consume an NCA labeling scheme (Lemma 2.1) only through
two capabilities: given two labels, report ``lightdepth(NCA(u, v))`` and
decide which endpoint *dominates* the other.  This package provides

* :class:`~repro.nca.lca_oracle.LCAOracle` — a classical Euler-tour +
  sparse-table oracle (full tree access; used at encode time and as ground
  truth),
* :class:`~repro.nca.labels.LightDepthLabeling` — O(log n)-bit labels that
  provide exactly the two capabilities above,
* :class:`~repro.nca.nca_labeling.NCALabeling` — a labeling scheme that
  returns the (canonical) label of the NCA itself, mirroring how Section 3.6
  reconstructs ancestors from label prefixes.

Both label families read their levels from one root-path walk,
:meth:`~repro.trees.collapsed.CollapsedTree.root_path_levels`: the heavy
paths on a node's root path and, for each, its exit (the branch node of the
next path, or the node itself on its own path).  Light-depth labels keep one
codeword per path below the root path; NCA labels add each exit's root
distance.
"""

from repro.nca.lca_oracle import LCAOracle
from repro.nca.labels import LightDepthLabel, LightDepthLabeling
from repro.nca.nca_labeling import NCALabeling

__all__ = ["LCAOracle", "LightDepthLabel", "LightDepthLabeling", "NCALabeling"]
