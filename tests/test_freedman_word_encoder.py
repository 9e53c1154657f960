"""The Freedman encoder against the field-by-field reference encoder.

``FreedmanScheme.encode_stream`` builds each label's fields from per-path
rows, serialises them with ``FreedmanLabel.write`` (``_kernels.c`` does
both on the native tier) and yields a label that holds only its bit length
and payload bytes;
``tests/freedman_reference.reference_encode`` builds the same labels field
by field from its own rows.  The two must agree field for field and bit
for bit on every pin tree under every ablation, on a 10⁴-node Prüfer tree
under ``default`` and ``no-binarize``, and, on the python tier, on
hypothesis trees of every generator family, unweighted and weighted.
The encoder's premise, that every query leaf's collapsed path is
childless, must hold on the pin trees.  The lazy label must keep its
contract: it serialises without parsing, parses once on the first field
access, and compares, prints, pickles and copies the same whether or not
it was read.
"""

from __future__ import annotations

import copy
import pickle
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from bitio_reference import gamma_length
from freedman_reference import reference_encode, reference_to_bits
from repro.core.freedman import FreedmanLabel, FreedmanScheme
from repro.generators.random_trees import random_prufer_tree
from repro.store import LabelStore, write_store
from repro.trees.collapsed import CollapsedTree
from repro.trees.heavy_path import HeavyPathDecomposition
from repro.trees.transform import prepare_for_leaf_queries
from test_freedman_encode_pins import LARGE, LARGE_DIGESTS, SCHEMES, TREES
from test_freedman_native_encoder import trees
from test_kernels import available_tiers, forced_tier
from tree_extras import random_weighted_tree

#: edge weights near 2^55: some serialised entries are wider than 64 bits
WIDE = lambda: random_weighted_tree(60, 1 << 55, seed=11)  # noqa: E731

CASES = (
    [(family, name) for family in sorted(TREES) for name in sorted(SCHEMES)]
    + [("wide", name) for name in sorted(SCHEMES)]
    + [("large", name) for name in sorted(LARGE_DIGESTS)]
)


def _tree(family):
    return {**TREES, "wide": WIDE, "large": LARGE}[family]()


def assert_matches_reference(tree, scheme_name):
    scheme = FreedmanScheme(**SCHEMES[scheme_name])
    labels = scheme.encode(tree)
    reference, stats = reference_encode(FreedmanScheme(**SCHEMES[scheme_name]), tree)
    assert scheme.encoding_stats == stats
    assert sorted(labels) == sorted(reference)
    for node, label in labels.items():
        expected = reference[node]
        # the payload first, before any field read replaces it
        assert label.to_bits() == reference_to_bits(expected), node
        for item in fields(FreedmanLabel):
            assert getattr(label, item.name) == getattr(expected, item.name), (
                node,
                item.name,
            )


@pytest.mark.parametrize("family,scheme_name", CASES)
def test_encoder_matches_reference_encoder(family, scheme_name):
    assert_matches_reference(_tree(family), scheme_name)


@given(trees, st.sampled_from(sorted(SCHEMES)))
@settings(max_examples=60, deadline=None)
def test_encoder_matches_reference_encoder_on_random_trees(tree, scheme_name):
    """The python tier's encoder on hypothesis trees of every generator
    family, unweighted and with weights up to 2^40."""
    with forced_tier("python"):
        assert_matches_reference(tree, scheme_name)


@pytest.mark.parametrize("family,scheme_name", CASES)
def test_query_leaf_paths_are_childless(family, scheme_name):
    """The encoder keeps levels only for the root path and paths with
    children, and builds each label's from its own path's parent: so
    every query leaf's collapsed path must be childless, and below the root
    path unless the tree is a single node.  (A pendant leaf joins a heavy
    path only when the path's head has a subtree of at most two nodes: an
    original leaf and its pendant leaf.)"""
    tree = _tree(family)
    binarize = FreedmanScheme(**SCHEMES[scheme_name]).params()["binarize"]
    transform = prepare_for_leaf_queries(tree, binarize_tree=binarize)
    decomposition = HeavyPathDecomposition(transform.tree)
    collapsed = CollapsedTree(decomposition)
    for original in range(tree.n):
        own_path = decomposition.path_of(transform.query_node[original])
        assert collapsed.children(own_path) == [], (original, own_path)
        assert (collapsed.parent(own_path) is None) == (tree.n == 1), (original, own_path)


def _adds_no_boundary(label) -> bool:
    """Whether the label's own path keeps its parent path's last fragment
    boundary (the root path's ref is 0)."""
    refs = [0, *label.fragment_refs]
    return len(refs) > 1 and refs[-1] == refs[-2]


@pytest.mark.parametrize("scheme_name", sorted(LARGE_DIGESTS))
def test_large_tree_has_labels_that_add_no_boundary(scheme_name):
    """The ``large`` cases reach the encoder's branch that reuses the parent
    path's boundaries as they are, thousands of times; of the smaller
    unweighted pin trees only ``three`` reaches it, with two labels."""
    labels = FreedmanScheme(**SCHEMES[scheme_name]).encode(LARGE())
    assert any(map(_adds_no_boundary, labels.values()))


def test_wide_tree_has_entries_wider_than_a_word():
    """The ``wide`` cases serialise entries wider than 64 bits."""
    labels = FreedmanScheme(use_accumulators=False).encode(WIDE())
    widest = max(
        1 + gamma_length(len(kept)) + len(kept) + gamma_length(pushed)
        for label in labels.values()
        for kept, pushed, skip in zip(label.entry_kept, label.entry_pushed, label.entry_skip)
        if not skip
    )
    assert widest > 64


# -- the lazy label ---------------------------------------------------------


@pytest.fixture
def parse_calls(monkeypatch):
    """Every call of the label parser, recorded (by label length)."""
    calls = []
    original = FreedmanLabel.read.__func__

    def counting(cls, reader):
        calls.append(reader.remaining())
        return original(cls, reader)

    monkeypatch.setattr(FreedmanLabel, "read", classmethod(counting))
    return calls


def _unread(node=33):
    return FreedmanScheme().encode(random_prufer_tree(120, seed=6))[node]


def _expected(node=33):
    labels, _ = reference_encode(FreedmanScheme(), random_prufer_tree(120, seed=6))
    return labels[node]


def test_unread_labels_serialise_without_parsing(parse_calls):
    labels = FreedmanScheme().encode(random_prufer_tree(200, seed=4))
    for label in labels.values():
        bits = label.to_bits()
        assert label.bit_length() == len(bits)
        assert "_packed" in vars(label)
    assert parse_calls == []


def test_first_field_read_parses_once_and_drops_the_word(parse_calls):
    label = _unread()
    bits = label.to_bits()
    assert parse_calls == []
    assert label.light_depth > 0
    assert len(parse_calls) == 1
    assert "_packed" not in vars(label)
    for item in fields(FreedmanLabel):
        getattr(label, item.name)
    assert label.to_bits() == bits
    assert label.bit_length() == len(bits)
    assert len(parse_calls) == 1


def test_assigning_a_field_of_an_unread_label_parses_first(parse_calls):
    label = _unread()
    label.node_id = 999
    assert len(parse_calls) == 1
    expected = _expected()
    expected.node_id = 999
    assert label == expected
    assert label.to_bits() == reference_to_bits(expected)


def test_missing_attributes_do_not_parse(parse_calls):
    label = _unread()
    assert not hasattr(label, "no_such_field")
    assert getattr(label, "__deepcopy__", None) is None
    assert parse_calls == []


def _read():
    label = _unread()
    label.node_id  # noqa: B018 - the first read replaces the payload
    return label


@pytest.mark.parametrize("make", [_unread, _read], ids=["unread", "read"])
def test_equality_and_repr(make):
    expected = _expected()
    assert make() == expected
    assert expected == make()
    assert make() == make()
    assert make() != _unread(node=34)
    assert repr(make()) == repr(expected)


@pytest.mark.parametrize("make", [_unread, _read], ids=["unread", "read"])
@pytest.mark.parametrize(
    "duplicate",
    [lambda label: pickle.loads(pickle.dumps(label)), copy.deepcopy, copy.copy],
    ids=["pickle", "deepcopy", "copy"],
)
def test_pickle_and_copies(make, duplicate):
    expected = _expected()
    bits = reference_to_bits(expected)
    original = make()
    twin = duplicate(original)
    assert twin is not original
    # a copy keeps the form of its original: a payload stays a payload
    assert ("_packed" in vars(twin)) == ("_packed" in vars(original))
    assert twin.to_bits() == bits
    assert twin == expected
    assert original == expected


def test_streaming_build_never_parses(parse_calls, tmp_path):
    tree = TREES["hm"]()
    path = tmp_path / "hm.rls"
    write_store(FreedmanScheme(), tree, path)
    assert parse_calls == []
    assert path.read_bytes() == LabelStore.encode_tree(FreedmanScheme(), tree).to_bytes()


@pytest.mark.parametrize("tier", available_tiers())
def test_builds_never_parse_on_either_tier(tier, parse_calls, tmp_path):
    """``from_labels`` over ``encode``, ``encode_tree`` and ``write_store``
    take each label's payload as the encoder wrote it: no label is parsed."""
    tree = TREES["hm"]()
    path = tmp_path / "hm.rls"
    with forced_tier(tier):
        scheme = FreedmanScheme()
        built = LabelStore.from_labels(scheme, scheme.encode(tree)).to_bytes()
        streamed = LabelStore.encode_tree(FreedmanScheme(), tree).to_bytes()
        write_store(FreedmanScheme(), tree, path)
    assert parse_calls == []
    assert built == streamed == path.read_bytes()


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_every_build_entry_gives_one_store(name, tmp_path):
    """Every way to build a store gives the same bytes, under every
    ablation: ``from_labels`` over an untouched ``encode`` (the store it
    holds), and over one whose labels were handed out, one read and one
    set to its own value (packed label by label); ``encode_tree``;
    ``write_store``; and the python tier's encoder.  A label set to a new
    value is packed as it now is, never as it was encoded."""
    tree = random_prufer_tree(700, seed=12)
    path = tmp_path / "written.rls"
    stores = {}
    for tier in available_tiers():
        with forced_tier(tier):
            scheme = FreedmanScheme(**SCHEMES[name])
            labels = scheme.encode(tree)
            stores[f"{tier}/from_labels"] = LabelStore.from_labels(scheme, labels)
            labels[3].node_id  # noqa: B018 - a read parses the label
            labels[5].root_distance = labels[5].root_distance
            generic = LabelStore.from_labels(scheme, labels)
            assert generic is not labels.store
            stores[f"{tier}/handed-out"] = generic
            stores[f"{tier}/encode_tree"] = LabelStore.encode_tree(scheme, tree)
            write_store(scheme, tree, path)
            stores[f"{tier}/write_store"] = LabelStore.load(path)
            labels[7].root_distance += 1
            changed = LabelStore.from_labels(scheme, labels)
            assert bytes(changed.raw(7)) == labels[7].packed()[1]
            assert bytes(changed.raw(7)) != bytes(labels.store.raw(7))
    images = {key: store.to_bytes() for key, store in stores.items()}
    assert len(set(images.values())) == 1, sorted(images)


def test_native_builds_run_no_python_per_label(monkeypatch, tmp_path):
    """On the native tier, ``encode_tree``, ``from_labels(encode)``,
    ``write_store`` and ``from_bytes`` make no label object and run no
    payload loop, and the Python calls they make do not grow with ``n``."""
    if "native" not in available_tiers():
        pytest.skip("native kernel tier unavailable")
    from repro.core import freedman
    from repro.store import label_store

    made, packed = [], []
    new_label, pack_labels = freedman._new_label, label_store.pack_labels
    monkeypatch.setattr(freedman, "_new_label", lambda cls: made.append(1) or new_label(cls))

    def counting_pack(labels, *args, **kwargs):
        packed.append(type(labels).__name__)
        return pack_labels(labels, *args, **kwargs)

    monkeypatch.setattr(label_store, "pack_labels", counting_pack)

    def builds(tree):
        scheme = FreedmanScheme()
        path = tmp_path / "built.rls"
        encoded = scheme.encode(tree)
        assert LabelStore.from_labels(scheme, encoded) is encoded.store
        LabelStore.encode_tree(scheme, tree)
        write_store(scheme, tree, path)
        LabelStore.from_bytes(path.read_bytes())

    def python_calls(tree) -> int:
        calls = [0]

        def profile(frame, event, arg):
            if event == "call":
                calls[0] += 1

        sys.setprofile(profile)
        try:
            builds(tree)
        finally:
            sys.setprofile(None)
        return calls[0]

    with forced_tier("native"):
        builds(random_prufer_tree(50, seed=3))  # imports and first-use setup
        small = python_calls(random_prufer_tree(1000, seed=3))
        large = python_calls(random_prufer_tree(16000, seed=3))
    assert made == []
    # the payload loop takes every label set as runs, never label by label
    assert set(packed) == {"LabelRuns"}
    # the extra calls are a few per run of encoder output, not per label
    assert large - small < 15000 // 100, (small, large)


@pytest.mark.parametrize("tier", available_tiers())
def test_unread_label_packs_copies_and_compares(tier, parse_calls):
    """An unread label hands out its payload, pickles and copies as a
    payload, and parses once, on its first field read (``==`` here)."""
    with forced_tier(tier):
        label = _unread()
    bits = reference_to_bits(_expected())
    packed = (len(bits), bits.to_bytes())
    assert label.packed() == packed
    assert label.packed() is label.packed()
    for twin in (pickle.loads(pickle.dumps(label)), copy.copy(label), copy.deepcopy(label)):
        assert "_packed" in vars(twin)
        assert twin.packed() == packed
    assert parse_calls == []
    assert label == _expected()
    assert len(parse_calls) == 1
    assert "_packed" not in vars(label)
    assert label.packed() == packed
    assert label == _expected()
    assert len(parse_calls) == 1


def test_concurrent_first_reads_all_see_the_fields():
    """Threads racing to the first field read never find neither form."""
    threads = 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for label in FreedmanScheme().encode(random_prufer_tree(60, seed=8)).values():
            expected = reference_to_bits(copy.deepcopy(label))
            start = threading.Barrier(threads)

            def first_read(label=label, start=start):
                start.wait(timeout=10)
                return label.fragment_distances

            with ThreadPoolExecutor(max_workers=threads) as pool:
                futures = [pool.submit(first_read) for _ in range(threads)]
                for future in futures:
                    future.result(timeout=10)
            assert "_packed" not in vars(label)
            assert label.to_bits() == expected
    finally:
        sys.setswitchinterval(interval)
