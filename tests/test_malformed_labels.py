"""Crafted malformed labels fail the same way on every parse path.

Every label class has one parser, ``read(reader)``, and every path into it
— ``scheme.parse`` on a :class:`Bits`, ``scheme.parse_many`` on the store's
packed words, and a :class:`QueryEngine` over a store holding the label, on
each kernel tier — must raise the same error type on a malformed label,
with a small memory peak.  Per label format three kinds of crafted label:

* a Lemma 2.2 monotone sequence that decreases (``ValueError``), for the
  formats that hold one;
* a gamma-coded count far larger than the bits left (:class:`BitError`,
  raised before anything is allocated for the count);
* every strict prefix of a valid label (:class:`BitError`);
* for hld-fixed, a header of zero-width fields with a large level count
  (:class:`BitError`, where nothing else would bound the loop);
* for freedman, a fragment ref past the fragment distances, or missing:
  the label parses, and every query with it raises the ``ValueError`` of
  inconsistent labels;
* for k-distance, entry lists whose lengths disagree (no distance, a child
  height short, heights past the distances and the extension): likewise.

The crafted labels are spliced on the printable bit string, with the field
offsets found by the string-backed decoders of ``bitio_reference``; where a
reference parser exists it must raise the same error type too.
"""

from __future__ import annotations

import tracemalloc

import pytest

import bitio_reference as ref
from freedman_reference import reference_from_bits
from label_reference import alstrup_from_bits, kdistance_from_bits
from repro.core.registry import make_scheme_from_spec
from repro.encoding.alphabetic import common_codeword_prefix
from repro.encoding.bitio import BitError, Bits
from repro.generators.workloads import make_tree
from repro.store import LabelStore, QueryEngine
from test_kernels import available_tiers, forced_tier

#: a count no label of these trees comes near: gamma(2**24) is 49 bits
HUGE = 1 << 24

#: the monotone sequence ``[3, 0]``: gamma count 2, gamma low width 2, the
#: low parts ``11`` and ``00``, then two unary high differences of 0
DECREASING = "011" + "011" + "11" + "00" + "1" + "1"


def _gamma(value: int) -> str:
    shifted = value + 1
    return "0" * (shifted.bit_length() - 1) + format(shifted, "b")


def _skip_to_freedman_monotone(reader) -> None:
    for _ in range(3):
        ref.decode_delta(reader)
    depth = ref.decode_gamma(reader)
    for _ in range(depth):
        ref.decode_prefixed_bits(reader)
    for _ in range(depth):
        ref.decode_gamma(reader)


def _skip_to_kdistance_monotone(reader) -> None:
    ref.decode_delta(reader)
    ref.decode_gamma(reader)
    reader.read_bits(2)


def _skip_to_approximate_monotone(reader) -> None:
    for _ in range(4):
        ref.decode_delta(reader)
    for _ in range(ref.decode_gamma(reader)):
        ref.decode_prefixed_bits(reader)


def _skip_to_hld_count(reader) -> None:
    ref.decode_gamma(reader)
    ref.decode_gamma(reader)


#: spec, how to reach the crafted field, that field's decoder, the
#: reference parser (if any)
FAMILIES = {
    "freedman": (
        "freedman", _skip_to_freedman_monotone, ref.decode_monotone, reference_from_bits
    ),
    "hld-fixed": ("hld-fixed", _skip_to_hld_count, ref.decode_gamma, None),
    "alstrup": ("alstrup", ref.decode_delta, ref.decode_gamma, alstrup_from_bits),
    "k-distance": (
        "k-distance:k=3", _skip_to_kdistance_monotone, ref.decode_monotone, kdistance_from_bits
    ),
    "approximate": (
        "approximate:epsilon=0.5", _skip_to_approximate_monotone, ref.decode_monotone, None
    ),
}
MONOTONE_FAMILIES = ["freedman", "k-distance", "approximate"]


class _Raw:
    """A stand-in label whose serialisation is a crafted bit string."""

    def __init__(self, data: str) -> None:
        self._bits = Bits(data)

    def to_bits(self) -> Bits:
        return self._bits

    def packed(self) -> tuple[int, bytes]:
        return len(self._bits), self._bits.to_bytes()


def _setup(family: str):
    """The scheme, its labels and the node with the longest label."""
    spec = FAMILIES[family][0]
    scheme = make_scheme_from_spec(spec)
    labels = scheme.encode(make_tree("random", 60, seed=5))
    node = max(labels, key=lambda item: labels[item].bit_length())
    return scheme, labels, node


def _splice(family: str, data: str, replacement: str) -> str:
    """``data`` with its crafted field (count or monotone) replaced."""
    _, skip, decode, _ = FAMILIES[family]
    reader = ref.BitReader(data)
    skip(reader)
    start = reader.position
    decode(reader)
    return data[:start] + replacement + data[reader.position :]


def _raised(call) -> type | None:
    """The exception type ``call`` raises, checking its memory peak."""
    tracemalloc.start()
    try:
        call()
    except Exception as error:  # noqa: BLE001 - the type is the result
        kind = type(error)
    else:
        kind = None
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    assert peak < 1 << 20, f"{peak} bytes traced"
    return kind


def _assert_every_path_raises(family, scheme, labels, node, data, expected):
    bits = Bits(data)
    alone = LabelStore.from_labels(scheme, {0: _Raw(data)})
    kinds = {
        "parse": _raised(lambda: scheme.parse(bits)),
        "parse_many": _raised(lambda: scheme.parse_many(alone, [0])),
    }
    reference = FAMILIES[family][3]
    if reference is not None:
        kinds["reference"] = _raised(lambda: reference(bits))
    store = LabelStore.from_labels(scheme, {**labels, node: _Raw(data)})
    other = (node + 1) % len(labels)
    for tier in available_tiers():
        with forced_tier(tier):
            engine = QueryEngine(store, scheme=scheme)
            engine.query(other, other)  # binds the tier (and any arena) first
            kinds[f"engine/{tier}"] = _raised(lambda: engine.query(other, node))
            kinds[f"engine/{tier}/batch"] = _raised(
                lambda: engine.batch_query([(node, other), (other, other)])
            )
    assert set(kinds.values()) == {expected}, kinds


@pytest.mark.parametrize("family", MONOTONE_FAMILIES)
def test_decreasing_monotone_sequence(family):
    scheme, labels, node = _setup(family)
    data = _splice(family, labels[node].to_bits().data, DECREASING)
    _assert_every_path_raises(family, scheme, labels, node, data, ValueError)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_count_beyond_the_remaining_bits(family):
    scheme, labels, node = _setup(family)
    # a zero next: in a monotone sequence, a low width of 0, so the count
    # alone would size the list of low parts
    data = _splice(family, labels[node].to_bits().data, _gamma(HUGE) + _gamma(0))
    assert len(data) < HUGE
    _assert_every_path_raises(family, scheme, labels, node, data, BitError)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_strict_prefix(family):
    scheme, labels, node = _setup(family)
    data = labels[node].to_bits().data
    for length in range(len(data)):
        _assert_every_path_raises(family, scheme, labels, node, data[:length], BitError)


def test_hld_levels_of_zero_width():
    """Zero-width fields leave nothing to bound the level count by."""
    scheme, labels, node = _setup("hld-fixed")
    data = _gamma(0) + _gamma(0) + _gamma(1 << 20)
    _assert_every_path_raises("hld-fixed", scheme, labels, node, data, BitError)


def test_the_decreasing_sequence_decodes_as_crafted():
    reader = ref.BitReader(DECREASING)
    with pytest.raises(ValueError):
        ref.decode_monotone(reader)
    assert reader.remaining() == 0


def _dominated_partner(labels, node) -> int:
    """A node whose query with ``node`` reads ``node``'s fragment ref: ``node``
    dominates it and has a kept entry at their critical level."""
    label = labels[node]
    for other, partner in sorted(labels.items()):
        level = common_codeword_prefix(label.codewords, partner.codewords)
        if (
            label.domination < partner.domination
            and level < min(label.light_depth, partner.light_depth)
            and not label.entry_skip[level]
        ):
            return other
    raise AssertionError("no node is dominated by the crafted one")


@pytest.mark.parametrize("fault", ["ref-past-distances", "refs-too-short"])
def test_fragment_ref_out_of_range(fault):
    """A label whose fragment ref at the critical level points past its
    fragment distances (or is missing) parses, and every query path raises
    the ``ValueError`` of inconsistent labels."""
    scheme, labels, node = _setup("freedman")
    other = _dominated_partner(labels, node)
    crafted = scheme.parse(labels[node].to_bits())
    if fault == "ref-past-distances":
        crafted.fragment_refs = [len(crafted.fragment_distances)] * crafted.light_depth
    else:
        crafted.fragment_refs = []
    bits = crafted.to_bits()
    store = LabelStore.from_labels(scheme, {**labels, node: _Raw(bits.data)})
    calls = {
        "parse": lambda: scheme.distance(scheme.parse(bits), labels[other]),
        "reference": lambda: scheme.distance(reference_from_bits(bits), labels[other]),
        "parse_many": lambda: scheme.distance(*scheme.parse_many(store, [node, other]).values()),
    }
    for tier in available_tiers():
        with forced_tier(tier):
            engine = QueryEngine(store, scheme=scheme)
            engine.query(other, other)  # binds the tier (and any arena) first
            calls[f"engine/{tier}"] = lambda engine=engine: engine.query(other, node)
            calls[f"engine/{tier}/batch"] = lambda engine=engine: engine.batch_query(
                [(node, other), (other, other)]
            )
    for name, call in calls.items():
        with pytest.raises(ValueError, match="labels are inconsistent: the fragment ref"):
            call()


@pytest.mark.parametrize(
    "fault", ["no-distances", "child-heights-short", "heights-past-extension"]
)
def test_kdistance_entry_lists_out_of_step(fault):
    """A k-distance label whose entry lists disagree in length parses, and
    every query path raises the ``ValueError`` of inconsistent labels, where
    the decoder used to index past a list (``IndexError``)."""
    scheme, labels, node = _setup("k-distance")
    crafted = scheme.parse(labels[node].to_bits())
    if fault == "no-distances":
        crafted.distances = []
    elif fault == "child-heights-short":
        crafted.child_heights = crafted.child_heights[:-1]
    else:
        crafted.heights = crafted.heights + [crafted.heights[-1]] * 2
    bits = crafted.to_bits()
    assert bits != labels[node].to_bits()
    store = LabelStore.from_labels(scheme, {**labels, node: _Raw(bits.data)})
    others = [other for other in labels if other != node]
    calls = {
        "parse": lambda: [scheme.query(scheme.parse(bits), labels[o]) for o in others],
        "reference": lambda: [
            scheme.query(kdistance_from_bits(bits), labels[o]) for o in others
        ],
        "parse_many": lambda: [
            scheme.query(*scheme.parse_many(store, [o, node]).values()) for o in others
        ],
    }
    for tier in available_tiers():
        with forced_tier(tier):
            engine = QueryEngine(store, scheme=scheme)
            calls[f"engine/{tier}"] = lambda engine=engine: [
                engine.query(node, o) for o in others
            ]
            calls[f"engine/{tier}/batch"] = lambda engine=engine: engine.batch_query(
                [(o, node) for o in others]
            )
    for name, call in calls.items():
        with pytest.raises(ValueError, match="labels are inconsistent: the k-distance"):
            call()
