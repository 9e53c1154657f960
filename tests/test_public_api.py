"""Top-level package API tests (the quickstart contract of the README).

``test_api_surface_snapshot`` pins ``repro.api.__all__`` exactly: any
addition or removal must touch this file too, keeping changes to the public
surface deliberate.
"""

import pytest

import repro
import repro.api
from repro import (
    AlstrupScheme,
    ApproximateScheme,
    DistanceIndex,
    FreedmanScheme,
    IndexCatalog,
    KDistanceScheme,
    RootedTree,
    TreeDistanceOracle,
    random_prufer_tree,
    tree_from_edges,
    tree_from_parents,
)

#: the canonical public surface; update deliberately alongside repro/api
EXPECTED_API_ALL = [
    "DistanceIndex",
    "IndexCatalog",
    "QueryResult",
    "CatalogError",
    "SpecError",
    "parse_spec",
    "format_spec",
    "scheme_spec",
    "make_scheme_from_spec",
    "available_specs",
    "CATALOG_MAGIC",
]


class TestPublicAPI:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_api_surface_snapshot(self):
        """``repro.api.__all__`` is pinned exactly (deliberate changes only)."""
        assert repro.api.__all__ == EXPECTED_API_ALL

    def test_api_surface_resolves(self):
        for name in repro.api.__all__:
            assert getattr(repro.api, name) is not None

    def test_readme_quickstart(self):
        tree = random_prufer_tree(200, seed=7)
        index = DistanceIndex.build(tree, "freedman")
        oracle = TreeDistanceOracle(tree)
        assert index.query(3, 42).value == oracle.distance(3, 42)

        catalog = IndexCatalog()
        catalog.add("backbone", index)
        assert catalog.query("backbone", 3, 42).value == oracle.distance(3, 42)

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    @pytest.mark.parametrize("name", ["no_such_name", "LabelStore", "QueryEngine"])
    def test_unknown_attribute_raises(self, name):
        with pytest.raises(AttributeError):
            getattr(repro, name)

    def test_builders_exported(self):
        tree = tree_from_parents([None, 0, 0])
        assert isinstance(tree, RootedTree)
        tree = tree_from_edges(3, [(0, 1), (1, 2)])
        assert tree.n == 3

    def test_every_headline_scheme_usable(self):
        """The label-level research surface stays importable and correct."""
        tree = random_prufer_tree(60, seed=1)
        oracle = TreeDistanceOracle(tree)

        exact = AlstrupScheme()
        labels = exact.encode(tree)
        assert exact.distance(labels[1], labels[2]) == oracle.distance(1, 2)

        bounded = KDistanceScheme(3)
        blabels = bounded.encode(tree)
        expected = oracle.distance(1, 2)
        assert bounded.bounded_distance(blabels[1], blabels[2]) == (
            expected if expected <= 3 else None
        )

        approx = ApproximateScheme(0.5)
        alabels = approx.encode(tree)
        answer = approx.approximate_distance(alabels[1], alabels[2])
        assert oracle.distance(1, 2) <= answer <= 1.5 * oracle.distance(1, 2) + 1e-9

    def test_every_headline_scheme_has_a_spec(self):
        """Facade coverage: the headline classes are reachable by spec."""
        for cls, spec in [
            (FreedmanScheme, "freedman"),
            (AlstrupScheme, "alstrup"),
            (KDistanceScheme, "k-distance:k=3"),
            (ApproximateScheme, "approximate:epsilon=0.5"),
        ]:
            index = DistanceIndex.build(random_prufer_tree(20, seed=2), spec)
            assert isinstance(index.scheme, cls)
