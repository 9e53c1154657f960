"""The word-level Freedman codec against the field-by-field reference codec.

``FreedmanLabel.to_bits`` shifts a whole label into one integer and
``FreedmanLabel.from_bits`` is ``FreedmanLabel.read`` on a ``BitReader``;
``tests/freedman_reference`` keeps a ``BitWriter`` encoder and a parser on
the string-backed reader of ``bitio_reference``.  On valid labels
the two must produce the same bits and the same parsed label; on invalid
fields, truncated bits and flipped bits they must end the same way: the
same label, or an exception of the same type.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freedman_reference import reference_from_bits, reference_to_bits
from repro.core.freedman import FreedmanLabel, FreedmanScheme
from repro.encoding.bitio import Bits
from repro.generators.random_trees import random_prufer_tree
from strategies import parent_array_trees

# mostly small values, some past the codec's 256-entry gamma table and
# past 64 bits
_INTS = st.one_of(
    st.integers(min_value=0, max_value=300),
    st.integers(min_value=0, max_value=1 << 80),
)


@st.composite
def _bits(draw, max_length: int = 300) -> Bits:
    length = draw(st.one_of(st.integers(0, 12), st.integers(0, max_length)))
    return Bits._pack(draw(st.integers(0, (1 << length) - 1)), length)


@st.composite
def freedman_labels(draw) -> FreedmanLabel:
    """Arbitrary well-formed labels (not necessarily from a real tree)."""
    depth = draw(st.integers(0, 6))
    entry_skip = draw(st.lists(st.booleans(), min_size=depth, max_size=depth))
    entry_kept = [Bits("") if skip else draw(_bits()) for skip in entry_skip]
    entry_pushed = [0 if skip else draw(_INTS) for skip in entry_skip]

    def monotone():
        return sorted(draw(st.lists(_INTS, max_size=8)))

    return FreedmanLabel(
        node_id=draw(_INTS),
        root_distance=draw(_INTS),
        domination=draw(_INTS),
        codewords=[draw(_bits()) for _ in range(depth)],
        light_weights=[draw(_INTS) for _ in range(depth)],
        fragment_refs=monotone(),
        fragment_distances=monotone(),
        entry_skip=entry_skip,
        entry_kept=entry_kept,
        entry_pushed=entry_pushed,
        accumulators=[draw(_bits()) for _ in range(depth)],
    )


def _outcome(function, argument):
    try:
        return ("ok", function(argument))
    except Exception as error:  # the type is the contract, not the message
        return ("error", type(error))


def _parse_outcomes(bits: Bits):
    return _outcome(FreedmanLabel.from_bits, bits), _outcome(reference_from_bits, bits)


@settings(max_examples=200, deadline=None)
@given(label=freedman_labels())
def test_word_serializer_matches_reference(label):
    bits = label.to_bits()
    assert bits == reference_to_bits(label)
    assert label.bit_length() == len(bits)
    assert FreedmanLabel.from_bits(bits) == label
    assert reference_from_bits(bits) == label


@settings(max_examples=25, deadline=None)
@given(tree=parent_array_trees(max_nodes=40))
def test_encoded_labels_match_reference(tree):
    for label in FreedmanScheme().encode(tree).values():
        bits = label.to_bits()
        assert bits == reference_to_bits(label)
        assert FreedmanLabel.from_bits(bits) == reference_from_bits(bits) == label


_BAD_FIELDS = {
    "node_id": lambda label: setattr(label, "node_id", -1),
    "root_distance": lambda label: setattr(label, "root_distance", -3),
    "domination": lambda label: setattr(label, "domination", -1),
    "light_weight": lambda label: label.light_weights.__setitem__(0, -1),
    "entry_pushed": lambda label: label.entry_pushed.__setitem__(0, -2),
    "fragment_refs": lambda label: label.fragment_refs.extend([5, 4]),
    "fragment_distances": lambda label: label.fragment_distances.insert(0, -1),
    "both_monotone_checks": lambda label: label.fragment_distances.extend([-1, -2]),
}


@pytest.mark.parametrize("field", sorted(_BAD_FIELDS))
def test_invalid_fields_raise_like_reference(field):
    label = FreedmanScheme().encode(random_prufer_tree(40, seed=2))[7]
    assert label.light_depth and not label.entry_skip[0]
    _BAD_FIELDS[field](label)
    word = _outcome(FreedmanLabel.to_bits, label)
    reference = _outcome(reference_to_bits, label)
    assert word[0] == "error"
    assert word == reference
    assert _outcome(FreedmanLabel.bit_length, label) == reference


@settings(max_examples=150, deadline=None)
@given(
    label=freedman_labels(),
    cut=st.floats(0.0, 1.0, exclude_max=True),
    flips=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=3),
)
def test_truncated_or_flipped_labels_end_like_reference(label, cut, flips):
    bits = label.to_bits()
    value, length = bits.to_int(), len(bits)
    for position in flips:
        value ^= 1 << int(position * length)
    flipped = Bits._pack(value, length)
    word, reference = _parse_outcomes(flipped)
    assert word == reference
    keep = int(cut * length)
    truncated = flipped[:keep]
    word, reference = _parse_outcomes(truncated)
    assert word == reference


def test_flipped_tree_labels_reject_a_decreasing_sequence():
    """Single-bit flips of real labels: same label or same exception type.

    Some flips leave a fragment sequence that decodes completely but
    decreases; ``FreedmanLabel.read`` rejects those with ``ValueError``
    just as the reference parser does.
    """
    scheme = FreedmanScheme()
    labels = scheme.encode(random_prufer_tree(300, seed=3))
    rng = random.Random(3)
    decreasing = 0
    for node in range(len(labels)):
        bits = labels[node].to_bits()
        for _ in range(29):
            position = rng.randrange(len(bits))
            flipped = Bits._pack(bits.to_int() ^ (1 << position), len(bits))
            word, reference = _parse_outcomes(flipped)
            assert word == reference, (node, position)
            if word == ("error", ValueError):
                decreasing += 1
    assert decreasing > 0
