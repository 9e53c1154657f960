"""Distance labeling schemes.

This package contains the paper's primary contribution — the
``1/4 log² n + o(log² n)``-bit exact distance labeling scheme of Section 3
(:class:`~repro.core.freedman.FreedmanScheme`) — together with every scheme
it is compared against or builds on:

* :class:`~repro.core.naive.NaiveListScheme` — store the whole root path,
* :class:`~repro.core.separator.SeparatorScheme` — centroid-decomposition
  labels in the style of Peleg's O(log² n) scheme,
* :class:`~repro.core.hld.HLDScheme` — the Section 3.1 framework with
  fixed-width fields,
* :class:`~repro.core.alstrup.AlstrupScheme` — the 1/2 log² n heavy-path
  scheme of Alstrup et al. that the paper improves on,
* :class:`~repro.core.level_ancestor.LevelAncestorScheme` — Section 3.6,
* :class:`~repro.core.kdistance.KDistanceScheme` — Section 4,
* :class:`~repro.core.adjacency.AdjacencyScheme` — the k = 1 special case,
* :class:`~repro.core.approximate.ApproximateScheme` — Section 5.

Every scheme produces self-contained bit-string labels; decoders consume
labels only (never the tree).
"""

from repro.core.base import (
    ApproximateDistanceLabelingScheme,
    BoundedDistanceLabelingScheme,
    DistanceLabelingScheme,
    Label,
    LabelingScheme,
)
from repro.core.naive import NaiveListScheme
from repro.core.separator import SeparatorScheme
from repro.core.hld import HLDScheme
from repro.core.alstrup import AlstrupScheme
from repro.core.freedman import FreedmanScheme
from repro.core.level_ancestor import LevelAncestorScheme
from repro.core.kdistance import KDistanceScheme
from repro.core.adjacency import AdjacencyScheme
from repro.core.approximate import ApproximateScheme
from repro.core.registry import (
    ALL_SCHEME_NAMES,
    APPROXIMATE_SCHEMES,
    BOUNDED_SCHEMES,
    SCHEME_CLASSES,
    SCHEMES,
    SpecError,
    format_spec,
    make_any_scheme,
    make_scheme,
    make_scheme_from_spec,
    parse_spec,
    scheme_spec,
)

__all__ = [
    "LabelingScheme",
    "DistanceLabelingScheme",
    "BoundedDistanceLabelingScheme",
    "ApproximateDistanceLabelingScheme",
    "Label",
    "NaiveListScheme",
    "SeparatorScheme",
    "HLDScheme",
    "AlstrupScheme",
    "FreedmanScheme",
    "LevelAncestorScheme",
    "KDistanceScheme",
    "AdjacencyScheme",
    "ApproximateScheme",
    "SCHEMES",
    "BOUNDED_SCHEMES",
    "APPROXIMATE_SCHEMES",
    "SCHEME_CLASSES",
    "ALL_SCHEME_NAMES",
    "make_scheme",
    "make_any_scheme",
    "make_scheme_from_spec",
    "parse_spec",
    "format_spec",
    "scheme_spec",
    "SpecError",
]
