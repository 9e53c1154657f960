"""Differential tests for k-distance ``parse_many`` on the store's words.

``LabelingScheme.parse_many`` turns each packed store word into a
``BitReader`` and parses it with ``KDistanceLabel.read``, the one
k-distance parser.  These tests pin it field-for-field against
``scheme.parse`` and against ``label_reference.kdistance_from_bits``, which
decodes on the string-backed reader of ``bitio_reference`` — the same
contract ``tests/test_freedman_parse_many.py`` and
``tests/test_alstrup_parse_many.py`` enforce for the other label formats.
Both the compact (``k < log n``, Lemma 4.5 tables present) and simple
regimes are exercised.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from label_reference import kdistance_from_bits
from repro.core.kdistance import KDistanceScheme
from repro.generators.workloads import make_tree, random_pairs
from repro.oracles.exact_oracle import TreeDistanceOracle
from repro.store import LabelStore, QueryEngine
from strategies import parent_array_trees


def _assert_same_labels(scheme: KDistanceScheme, store: LabelStore) -> None:
    nodes = list(range(store.n))
    word_level = scheme.parse_many(store, nodes)
    assert list(word_level) == nodes
    for node in nodes:
        bits = store.label_bits(node)
        assert word_level[node] == scheme.parse(bits), f"label of node {node} differs"
        assert word_level[node] == kdistance_from_bits(bits), f"label of node {node} differs"


@pytest.mark.parametrize("family", ["random", "path", "star", "caterpillar", "broom"])
@pytest.mark.parametrize("k", [2, 16])
def test_word_level_matches_generic_across_families(family, k):
    # k=2 lands in the compact regime (position_mod + forward/backward
    # tables populated), k=16 > log2(120) in the simple regime
    tree = make_tree(family, 120, seed=11)
    scheme = KDistanceScheme(k)
    _assert_same_labels(scheme, LabelStore.encode_tree(scheme, tree))


@settings(max_examples=25, deadline=None)
@given(tree=parent_array_trees(max_nodes=40))
def test_word_level_matches_generic_on_random_trees(tree):
    scheme = KDistanceScheme(3)
    _assert_same_labels(scheme, LabelStore.encode_tree(scheme, tree))


@pytest.mark.parametrize("mode", ["compact", "simple"])
def test_parse_equals_reference_per_label(mode):
    tree = make_tree("random", 60, seed=19)
    scheme = KDistanceScheme(4, mode=mode)
    store = LabelStore.encode_tree(scheme, tree)
    for node in range(store.n):
        bits = store.label_bits(node)
        assert scheme.parse(bits) == kdistance_from_bits(bits)


def test_engine_queries_through_word_parser_match_oracle():
    tree = make_tree("random", 300, seed=29)
    scheme = KDistanceScheme(5)
    engine = QueryEngine(LabelStore.encode_tree(scheme, tree), scheme=scheme)
    oracle = TreeDistanceOracle(tree)
    pairs = random_pairs(tree, 600, seed=31)
    expected = [
        d if (d := oracle.distance(u, v)) <= 5 else None for u, v in pairs
    ]
    assert engine.batch_query(pairs) == expected


def test_word_level_used_by_duck_typed_stores():
    """A store exposing only ``label_words`` still gets the word path."""

    class WordsOnlyStore:
        def __init__(self, store: LabelStore) -> None:
            self._store = store

        def label_words(self, nodes):
            return self._store.label_words(nodes)

    tree = make_tree("random", 80, seed=37)
    scheme = KDistanceScheme(3)
    store = LabelStore.encode_tree(scheme, tree)
    nodes = list(range(store.n))
    assert scheme.parse_many(WordsOnlyStore(store), nodes) == scheme.parse_many(
        store, nodes
    )
