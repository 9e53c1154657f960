"""The word-level Freedman encoder against the field-by-field reference encoder.

``FreedmanScheme.encode_stream`` shifts each label straight into one
integer from per-path rows and yields a label that holds only that word;
``tests/freedman_reference.reference_encode`` builds the same labels field
by field.  The two must agree field for field and bit for bit on every pin
tree under every ablation, and the lazy label must keep its contract: it
serialises without parsing, parses once on the first field access, and
compares, prints, pickles and copies the same whether or not it was read.
"""

from __future__ import annotations

import copy
import pickle
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields

import pytest

from bitio_reference import gamma_length
from freedman_reference import reference_encode, reference_to_bits
from repro.core.freedman import FreedmanLabel, FreedmanScheme
from repro.generators.random_trees import random_prufer_tree, random_weighted_tree
from repro.store import LabelStore, write_store
from test_freedman_encode_pins import SCHEMES, TREES

#: edge weights near 2^55: some serialised entries are wider than 64 bits
WIDE = lambda: random_weighted_tree(60, 1 << 55, seed=11)  # noqa: E731

CASES = [(family, name) for family in sorted(TREES) for name in sorted(SCHEMES)] + [
    ("wide", name) for name in sorted(SCHEMES)
]


def _tree(family):
    return WIDE() if family == "wide" else TREES[family]()


@pytest.mark.parametrize("family,scheme_name", CASES)
def test_encoder_matches_reference_encoder(family, scheme_name):
    tree = _tree(family)
    scheme = FreedmanScheme(**SCHEMES[scheme_name])
    labels = scheme.encode(tree)
    reference, stats = reference_encode(FreedmanScheme(**SCHEMES[scheme_name]), tree)
    assert scheme.encoding_stats == stats
    assert sorted(labels) == sorted(reference)
    for node, label in labels.items():
        expected = reference[node]
        # the word first, before any field read replaces it
        assert label.to_bits() == reference_to_bits(expected), node
        for item in fields(FreedmanLabel):
            assert getattr(label, item.name) == getattr(expected, item.name), (
                node,
                item.name,
            )


def test_wide_tree_has_entries_wider_than_a_word():
    """The ``wide`` cases reach the encoder's list row of entry segments."""
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
        assert "_word" in vars(label)
    assert parse_calls == []


def test_first_field_read_parses_once_and_drops_the_word(parse_calls):
    label = _unread()
    bits = label.to_bits()
    assert parse_calls == []
    assert label.light_depth > 0
    assert len(parse_calls) == 1
    assert "_word" not in vars(label)
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
    label.node_id  # noqa: B018 - the first read replaces the word
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
    # a copy keeps the form of its original: a word stays a word
    assert ("_word" in vars(twin)) == ("_word" in vars(original))
    assert twin.to_bits() == bits
    assert twin == expected
    assert original == expected


def test_streaming_build_never_parses(parse_calls, tmp_path):
    tree = TREES["hm"]()
    path = tmp_path / "hm.rls"
    write_store(FreedmanScheme(), tree, path)
    assert parse_calls == []
    assert path.read_bytes() == LabelStore.encode_tree(FreedmanScheme(), tree).to_bytes()


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
            assert "_word" not in vars(label)
            assert label.to_bits() == expected
    finally:
        sys.setswitchinterval(interval)
