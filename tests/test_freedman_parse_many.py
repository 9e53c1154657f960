"""Differential tests for Freedman ``parse_many`` on the store's words.

``LabelingScheme.parse_many`` turns each packed store word into a
``BitReader`` and parses it with ``FreedmanLabel.read``, the one Freedman
parser.  These tests pin it field-for-field against ``scheme.parse`` (the
same ``read`` from a :class:`Bits`) and against the reference parser in
``freedman_reference``, which decodes on the string-backed reader of
``bitio_reference`` and shares no decode code with ``src/``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from freedman_reference import reference_from_bits
from repro.core.freedman import FreedmanScheme
from repro.generators.workloads import make_tree, random_pairs
from repro.oracles.exact_oracle import TreeDistanceOracle
from repro.store import LabelStore, QueryEngine
from strategies import parent_array_trees


def _assert_same_labels(scheme: FreedmanScheme, store: LabelStore) -> None:
    nodes = list(range(store.n))
    word_level = scheme.parse_many(store, nodes)
    assert list(word_level) == nodes
    for node in nodes:
        bits = store.label_bits(node)
        assert word_level[node] == scheme.parse(bits), f"label of node {node} differs"
        assert word_level[node] == reference_from_bits(bits), f"label of node {node} differs"


@pytest.mark.parametrize("family", ["random", "path", "star", "caterpillar", "broom"])
def test_word_level_matches_generic_across_families(family):
    tree = make_tree(family, 120, seed=11)
    scheme = FreedmanScheme()
    _assert_same_labels(scheme, LabelStore.encode_tree(scheme, tree))


@pytest.mark.parametrize(
    "params",
    [
        {"use_fragments": False},
        {"use_accumulators": False},
        {"binarize": False},
    ],
)
def test_word_level_matches_generic_for_ablations(params):
    tree = make_tree("random", 90, seed=3)
    scheme = FreedmanScheme(**params)
    _assert_same_labels(scheme, LabelStore.encode_tree(scheme, tree))


@settings(max_examples=25, deadline=None)
@given(tree=parent_array_trees(max_nodes=40))
def test_word_level_matches_generic_on_random_trees(tree):
    scheme = FreedmanScheme()
    _assert_same_labels(scheme, LabelStore.encode_tree(scheme, tree))


def test_parse_equals_reference_per_label():
    tree = make_tree("random", 60, seed=19)
    scheme = FreedmanScheme()
    store = LabelStore.encode_tree(scheme, tree)
    for node in range(store.n):
        bits = store.label_bits(node)
        assert scheme.parse(bits) == reference_from_bits(bits)


def test_engine_queries_through_word_parser_match_oracle():
    tree = make_tree("random", 300, seed=29)
    scheme = FreedmanScheme()
    engine = QueryEngine.encode_tree(scheme, tree)
    oracle = TreeDistanceOracle(tree)
    pairs = random_pairs(tree, 600, seed=31)
    assert engine.batch_query(pairs) == [oracle.distance(u, v) for u, v in pairs]


def test_word_level_used_by_duck_typed_stores():
    """A store exposing only ``label_words`` still gets the word path."""

    class WordsOnlyStore:
        def __init__(self, store: LabelStore) -> None:
            self._store = store

        def label_words(self, nodes):
            return self._store.label_words(nodes)

    tree = make_tree("random", 80, seed=37)
    scheme = FreedmanScheme()
    store = LabelStore.encode_tree(scheme, tree)
    nodes = list(range(store.n))
    assert scheme.parse_many(WordsOnlyStore(store), nodes) == scheme.parse_many(
        store, nodes
    )


def test_word_level_out_of_range_node():
    from repro.store.label_store import StoreError

    tree = make_tree("random", 20, seed=1)
    scheme = FreedmanScheme()
    store = LabelStore.encode_tree(scheme, tree)
    with pytest.raises(StoreError):
        scheme.parse_many(store, [store.n])
