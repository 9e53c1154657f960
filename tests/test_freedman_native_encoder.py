"""The native Freedman encoder against the Python one, byte for byte.

``FreedmanScheme.encode_stream`` asks the selected kernel backend first: on
the native tier ``_kernels.c`` computes the whole Section 2/3 chain from the
tree's rows and writes every label's bits; on the python tier the Python
encoder runs, and it stays the reference.  Hypothesis trees of every
generator family, unweighted and with weights up to 2^40, under all four
Freedman specs must give the same store payload, bit lengths and
``encoding_stats`` on both tiers, and the C encoder's runs must not depend
on the buffer size or on where a run is cut.  Skipped when the native tier
is unavailable.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st
from test_kernels import available_tiers, forced_tier
from tree_extras import random_weighted_tree

from repro import kernels
from repro.core.registry import make_scheme
from repro.generators.random_trees import (
    random_binary_tree,
    random_caterpillar,
    random_prufer_tree,
)
from repro.generators.structured import path_tree, star_tree
from repro.kernels import native
from repro.store import LabelStore
from repro.trees.tree import RootedTree


pytestmark = pytest.mark.skipif(
    "native" not in available_tiers(), reason="native kernel tier unavailable"
)

SPECS = [
    "freedman",
    "freedman-no-binarize",
    "freedman-no-fragments",
    "freedman-no-accumulators",
]

FAMILIES = {
    "prufer": random_prufer_tree,
    "binary": random_binary_tree,
    "caterpillar": random_caterpillar,
    "star": lambda n, seed: star_tree(n),
    "path": lambda n, seed: path_tree(n),
}

sizes = st.integers(min_value=1, max_value=400)
seeds = st.integers(min_value=0, max_value=2**31)

#: a family, then a size and seed for it
family_trees = st.sampled_from(sorted(FAMILIES)).flatmap(
    lambda family: st.tuples(sizes, seeds).map(lambda args: FAMILIES[family](*args))
)

#: a family tree, then one weight per node (the root's is ignored)
weighted_trees = family_trees.flatmap(
    lambda tree: st.lists(
        st.integers(min_value=0, max_value=2**40), min_size=tree.n, max_size=tree.n
    ).map(tree.reweighted)
)

trees = st.one_of(family_trees, weighted_trees)


def _no_python_encoder(tree):
    raise AssertionError("the native tier ran the Python encoder")


def encode_on(name: str, spec: str, tree: RootedTree):
    """``(payload, bit lengths, encoding_stats)`` of ``tree`` on tier ``name``."""
    scheme = make_scheme(spec)
    if name == "native":
        scheme._python_encode_stream = _no_python_encoder
    with forced_tier(name):
        assert kernels.backend_name() == name
        store = LabelStore.from_labels(scheme, scheme.encode(tree))
    view, _, lengths = store.buffers()
    return bytes(view), lengths.tolist(), scheme.encoding_stats


def assert_tiers_agree(spec: str, tree: RootedTree) -> None:
    assert encode_on("native", spec, tree) == encode_on("python", spec, tree)


@given(trees, st.sampled_from(SPECS))
@settings(max_examples=120, deadline=None)
def test_native_encoder_matches_python_encoder(tree, spec):
    assert_tiers_agree(spec, tree)


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize(
    "tree",
    [
        RootedTree([None]),
        RootedTree([None, 0]),
        RootedTree([None, 0, 0]),
        # int64 weights near the top of the range
        RootedTree([None, 0, 1, 0, 3, 3, 3], [0, 2**62, 2**62 - 7, 5, 2**61, 3, 2**62]),
        # children in a non-ascending order: binarization follows it
        random_prufer_tree(300, seed=2).with_child_order(
            {
                node: list(reversed(random_prufer_tree(300, seed=2).children(node)))
                for node in range(300)
            }
        ),
    ],
    ids=["single", "two", "three", "int64-weights", "reordered"],
)
def test_edge_trees_match(spec, tree):
    assert_tiers_agree(spec, tree)


# -- the folded level words ----------------------------------------------------
#
# The C encoder writes a level's codeword field, gamma(length) then the
# codeword, and its entry, 0 gamma(kept length) kept gamma(pushed) or the
# skip bit 1, each as one word of its path; an entry over 64 bits is written
# field by field.  Each fixed tree below checks that it takes the branch it
# is here for, from the Python encoder's labels.


def _gamma_bits(x: int) -> int:
    return 2 * (x + 1).bit_length() - 1


def _entry_widths(spec: str, tree: RootedTree) -> list[list[int]]:
    """Per label, each level's entry width in bits: 1 for a skip bit."""
    widths = []
    for label in make_scheme(spec)._python_encode_stream(tree):
        widths.append(
            [
                1
                if skip
                else 1 + _gamma_bits(len(kept)) + len(kept) + _gamma_bits(pushed)
                for skip, kept, pushed in zip(
                    label.entry_skip, label.entry_kept, label.entry_pushed
                )
            ]
        )
    return widths


@pytest.mark.parametrize(
    "weight, width", [(2**51 - 1, 64), (2**51, 65)], ids=["one-word", "wide"]
)
def test_entry_at_the_word_boundary(weight, width):
    """A 64-bit entry is the last that folds into one word; the next goes
    field by field."""
    tree = RootedTree([None, 0, 0], [0, weight, 5])
    widest = [max(level) for level in _entry_widths("freedman-no-accumulators", tree)]
    assert widest.count(width) == 1 and max(widest) == width
    for spec in SPECS:
        assert_tiers_agree(spec, tree)


def test_longest_light_codeword_for_the_size():
    """Unbinarized, a star's root path is the root alone, and the root's own
    pendant leaf is a light child of size 1 beside 2n - 2 other nodes below
    it: a codeword of bitlen(2n - 2) + 1 bits, the longest any unbinarized
    n-node tree gets."""
    tree = star_tree(1025)
    for spec in SPECS:
        labels = make_scheme(spec)._python_encode_stream(tree)
        longest = max(len(code) for label in labels for code in label.codewords)
        if spec == "freedman-no-binarize":
            assert longest == (2 * tree.n - 2).bit_length() + 1
        assert_tiers_agree(spec, tree)


def test_label_mixing_skipped_folded_and_wide_entries():
    """One label's levels take all three entry writes.  Its wide entry (72
    bits) would not fit one word even without its leading zero bits, six
    at this kept length, so a fold that cut it short would show."""
    tree = random_weighted_tree(20, 2**60, seed=0)
    widths = _entry_widths("freedman-no-accumulators", tree)
    assert any(1 in row and any(1 < w <= 64 for w in row) and max(row) > 70 for row in widths)
    for spec in SPECS:
        assert_tiers_agree(spec, tree)


def _native_words(spec: str, tree: RootedTree, every: int = 1 << 62):
    """The C encoder's labels (``(bit_length, payload)`` each) and run sizes,
    its runs cut at each multiple of ``every`` labels."""
    backend = kernels.get_backend("native")
    stats, lengths, offsets, drain = backend.encode_freedman(make_scheme(spec), tree)
    assert len(lengths) == tree.n and len(offsets) == tree.n + 1
    words, per_chunk = [], []
    start = 0
    for payload, done in drain(every):
        assert start < done <= tree.n
        assert start // every == (done - 1) // every  # no run crosses a cut
        base = offsets[start]
        assert len(payload) == offsets[done] - base
        for node in range(start, done):
            end = offsets[node + 1]
            assert end - offsets[node] == (lengths[node] + 7) // 8
            words.append((lengths[node], bytes(payload[offsets[node] - base : end - base])))
        per_chunk.append(done - start)
        start = done
    assert start == tree.n and offsets[0] == 0
    return words, per_chunk, stats


@pytest.mark.parametrize("spec", SPECS)
def test_chunked_output_matches_one_shot(spec, monkeypatch):
    """Chunk boundaries never move a byte: small chunks of several labels,
    and labels larger than the chunk, which travel alone."""
    tree = random_weighted_tree(400, 2**40, seed=5)
    monkeypatch.setattr(native, "ENCODE_CHUNK_BYTES", 1 << 24)
    one_shot, per_chunk, stats = _native_words(spec, tree)
    assert per_chunk == [tree.n]
    label_bytes = sorted(len(payload) for _, payload in one_shot)
    smallest, median, largest = label_bytes[0], label_bytes[len(label_bytes) // 2], label_bytes[-1]
    for budget in (1, smallest, median, 4 * largest // 3):
        monkeypatch.setattr(native, "ENCODE_CHUNK_BYTES", budget)
        words, per_chunk, chunk_stats = _native_words(spec, tree)
        assert words == one_shot
        assert chunk_stats == stats
        assert sum(per_chunk) == tree.n
        if budget < largest:
            assert any(len(payload) > budget for _, payload in words)
        if budget > 2 * smallest:
            assert max(per_chunk) > 1
    monkeypatch.setattr(native, "ENCODE_CHUNK_BYTES", 1 << 24)
    words, per_chunk, _ = _native_words(spec, tree, every=7)
    assert words == one_shot
    assert per_chunk == [7] * (tree.n // 7) + [tree.n % 7]


def test_native_words_are_the_python_words():
    """Each yielded label holds the Python encoder's bit length and payload."""
    tree = random_prufer_tree(250, seed=8)
    scheme = make_scheme("freedman")
    expected = [label._packed for label in scheme._python_encode_stream(tree)]
    words, _, _ = _native_words("freedman", tree)
    assert words == expected
