"""The one bit writer: Elias codes, prefixed bits and Lemma 2.2 sequences.

``BitWriter``'s field encoders are checked bit for bit against the
string-backed encoders of ``bitio_reference`` (which import nothing from
:mod:`repro.encoding`), with ``BitReader``'s decoders as their inverse.  A
write the writer rejects (a negative code, a decreasing sequence, a
value too wide for its field) must leave it exactly as it was.  Every
label class serialises through it with one ``write`` and parses with one
``read``, over the one :class:`~repro.core.base.Label` base.
"""

import math

import pytest
from hypothesis import given, strategies as st

import bitio_reference as ref
from bitio_extras import bounded_width, decode_bounded, decode_unary, encode_bounded, encode_unary
from repro.core.adjacency import AdjacencyLabel
from repro.core.alstrup import AlstrupLabel
from repro.core.approximate import ApproximateLabel
from repro.core.base import Label
from repro.core.freedman import FreedmanLabel
from repro.core.hld import HLDLabel
from repro.core.kdistance import KDistanceLabel
from repro.core.level_ancestor import LevelAncestorLabel
from repro.core.naive import NaiveLabel
from repro.core.separator import SeparatorLabel
from repro.encoding.bitio import BitError, BitReader, BitWriter, Bits
from repro.nca.labels import LightDepthLabel
from repro.nca.nca_labeling import NCALabel
from strategies import monotone_sequences

naturals = st.one_of(
    st.integers(min_value=0, max_value=300),
    st.integers(min_value=0, max_value=1 << 80),
)
packed_bits = st.text(alphabet="01", max_size=160).map(Bits)


def _written(write, value) -> Bits:
    writer = BitWriter()
    write(writer, value)
    return writer.getvalue()


def _reference_prefixed(writer, bits: Bits) -> None:
    ref.encode_gamma(writer, len(bits))
    writer.write_bits(bits.data)


#: kind -> (the writer's encoder, the reference encoder, the reader's decoder)
FIELDS = {
    "gamma": (BitWriter.write_gamma, ref.encode_gamma, BitReader.read_gamma),
    "delta": (BitWriter.write_delta, ref.encode_delta, BitReader.read_delta),
    "prefixed": (
        BitWriter.write_prefixed_bits,
        _reference_prefixed,
        BitReader.read_prefixed_bits,
    ),
    "monotone": (BitWriter.write_monotone, ref.encode_monotone, BitReader.read_monotone),
}

valid_fields = st.one_of(
    st.tuples(st.just("gamma"), naturals),
    st.tuples(st.just("delta"), naturals),
    st.tuples(st.just("prefixed"), packed_bits),
    st.tuples(st.just("monotone"), monotone_sequences()),
    st.tuples(st.just("monotone"), st.lists(naturals, max_size=8).map(sorted)),
)

negatives = st.integers(max_value=-1, min_value=-(1 << 80))
decreasing = st.lists(naturals, min_size=2, max_size=10).filter(lambda v: v != sorted(v))
with_negative = st.lists(
    st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=10
).filter(lambda values: min(values) < 0)

rejected_fields = st.one_of(
    st.tuples(st.just("gamma"), negatives),
    st.tuples(st.just("delta"), negatives),
    st.tuples(st.just("monotone"), decreasing),
    st.tuples(st.just("monotone"), with_negative),
)


class TestGamma:
    @pytest.mark.parametrize("value", [0, 1, 2, 3, 7, 8, 100, 12345])
    def test_round_trip(self, value):
        assert BitReader(_written(BitWriter.write_gamma, value)).read_gamma() == value

    def test_length_matches_reference(self):
        for value in range(0, 300):
            assert len(_written(BitWriter.write_gamma, value)) == ref.gamma_length(value)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            BitWriter().write_gamma(-1)

    @given(st.lists(st.integers(min_value=0, max_value=10**6), max_size=50))
    def test_concatenated_stream(self, values):
        writer = BitWriter()
        for value in values:
            writer.write_gamma(value)
        reader = BitReader(writer.getvalue())
        assert [reader.read_gamma() for _ in values] == values
        assert reader.remaining() == 0


class TestDelta:
    @pytest.mark.parametrize("value", [0, 1, 2, 3, 7, 8, 100, 12345, 10**9])
    def test_round_trip(self, value):
        assert BitReader(_written(BitWriter.write_delta, value)).read_delta() == value

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            BitWriter().write_delta(-1)

    def test_delta_shorter_than_gamma_for_large_values(self):
        delta = _written(BitWriter.write_delta, 10**6)
        assert len(delta) < len(_written(BitWriter.write_gamma, 10**6))

    @given(st.lists(st.integers(min_value=0, max_value=10**9), max_size=50))
    def test_concatenated_stream(self, values):
        writer = BitWriter()
        for value in values:
            writer.write_delta(value)
        reader = BitReader(writer.getvalue())
        assert [reader.read_delta() for _ in values] == values
        assert reader.remaining() == 0


class TestUnaryAndBounded:
    @given(st.integers(min_value=0, max_value=300))
    def test_unary_round_trip(self, value):
        writer = BitWriter()
        encode_unary(writer, value)
        assert decode_unary(BitReader(writer.getvalue())) == value

    def test_unary_rejects_negative(self):
        with pytest.raises(ValueError):
            encode_unary(BitWriter(), -3)

    def test_bounded_width(self):
        assert bounded_width(0) == 1
        assert bounded_width(1) == 1
        assert bounded_width(7) == 3
        assert bounded_width(8) == 4

    @given(st.integers(min_value=0, max_value=1000))
    def test_bounded_round_trip(self, value):
        universe = 1000
        writer = BitWriter()
        encode_bounded(writer, value, universe)
        assert decode_bounded(BitReader(writer.getvalue()), universe) == value

    def test_bounded_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            encode_bounded(BitWriter(), 5, 4)


class TestMonotone:
    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            BitWriter().write_monotone([3, 2])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            BitWriter().write_monotone([-1, 2])

    def test_rejects_a_drop_before_its_unary_run(self):
        """Written as it stands, ``[2^70, 0]`` would need a 2^70-bit unary
        run: the drop must be rejected before any of it is built."""
        with pytest.raises(ValueError):
            BitWriter().write_monotone([1 << 70, 0])

    def test_empty_sequence(self):
        bits = _written(BitWriter.write_monotone, [])
        assert bits.data == "1"
        assert BitReader(bits).read_monotone() == []

    @pytest.mark.parametrize(
        "values",
        [[2**40], [0] * 50, [0, 2**63], [7] * 3 + [2**20]],
        ids=["one-wide", "all-zero", "huge-gap", "plateau-then-jump"],
    )
    def test_extreme_values_round_trip(self, values):
        bits = _written(BitWriter.write_monotone, values)
        assert BitReader(bits).read_monotone() == values

    @given(monotone_sequences(max_length=12, max_value=200))
    def test_truncated_encoding_raises(self, values):
        """No strict prefix of an encoding parses: the format is self-delimiting."""
        data = _written(BitWriter.write_monotone, values).data
        for cut in range(len(data)):
            with pytest.raises(BitError):
                BitReader(data[:cut]).read_monotone()

    @given(monotone_sequences())
    def test_embedded_round_trip_property(self, values):
        """The encoding is self-delimiting inside a larger stream."""
        writer = BitWriter()
        writer.write_bits("101")
        writer.write_monotone(values)
        writer.write_bits("10110")
        reader = BitReader(writer.getvalue())
        assert reader.read_bits(3).data == "101"
        assert reader.read_monotone() == values
        assert reader.read_bits(5).data == "10110"

    @given(monotone_sequences(max_length=30, max_value=100))
    def test_size_bound(self, values):
        """Size stays O(s * max(1, log(M/s))) with a modest constant."""
        size = len(_written(BitWriter.write_monotone, values))
        s = max(len(values), 1)
        maximum = max(values) if values else 0
        per_element = max(1.0, math.log2(max(maximum, 1) / s + 1) + 1)
        assert size <= 6 * s * per_element + 32


class TestFieldProperties:
    @given(st.lists(valid_fields, max_size=8))
    def test_writes_match_reference_and_read_back(self, items):
        """Each ``write_x`` equals the reference encoder bit for bit, and
        ``read_x`` inverts it, field after field in one stream; ``packed``
        is the stream's length and its zero-padded bytes."""
        writer = BitWriter()
        reference = ref.BitWriter()
        for kind, value in items:
            ours, theirs, _ = FIELDS[kind]
            ours(writer, value)
            theirs(reference, value)
            assert len(writer) == len(reference), kind
        bits = writer.getvalue()
        assert bits.data == reference.getvalue().data
        assert writer.packed() == (len(bits), bits.to_bytes())
        reader = BitReader(bits)
        for kind, value in items:
            assert FIELDS[kind][2](reader) == value, kind
        assert reader.remaining() == 0

    @given(st.text(alphabet="01", max_size=80), rejected_fields)
    def test_rejected_write_leaves_the_writer_unchanged(self, prefix, field):
        kind, value = field
        ours, theirs, _ = FIELDS[kind]
        with pytest.raises(ValueError) as expected:
            theirs(ref.BitWriter(), value)
        writer = BitWriter()
        writer.write_bits(prefix)
        with pytest.raises(ValueError) as raised:
            ours(writer, value)
        assert type(raised.value) is type(expected.value)
        assert len(writer) == len(prefix)
        assert writer.getvalue().data == prefix

    @pytest.mark.parametrize(
        "write",
        [
            lambda writer: writer.write_bit(2),
            lambda writer: writer.write_bits("01x"),
            lambda writer: writer.write_int(-1, 4),
            lambda writer: writer.write_int(16, 4),
            lambda writer: writer.write_int(1, -1),
            lambda writer: writer.write_zeros(-1),
            lambda writer: writer.write_unary(-1),
        ],
        ids=["bit", "bits", "int-negative", "int-too-wide", "width", "zeros", "unary"],
    )
    def test_rejected_raw_write_leaves_the_writer_unchanged(self, write):
        writer = BitWriter()
        writer.write_bits("0010")
        with pytest.raises(BitError):
            write(writer)
        assert len(writer) == 4
        assert writer.getvalue().data == "0010"


LABEL_CLASSES = [
    AdjacencyLabel,
    AlstrupLabel,
    ApproximateLabel,
    FreedmanLabel,
    HLDLabel,
    KDistanceLabel,
    LevelAncestorLabel,
    LightDepthLabel,
    NaiveLabel,
    NCALabel,
    SeparatorLabel,
]


@pytest.mark.parametrize("cls", LABEL_CLASSES, ids=lambda cls: cls.__name__)
def test_label_classes_define_only_write_and_read(cls):
    assert issubclass(cls, Label)
    own = set(vars(cls)) & {"write", "read", "to_bits", "from_bits", "bit_length"}
    # a Freedman label the encoder yields serialises from its word
    word_paths = {"to_bits", "bit_length"} if cls is FreedmanLabel else set()
    assert own == {"write", "read"} | word_paths


def test_slotted_label_class_stays_slot_only():
    label = HLDLabel(3, [0, 1], [1, 2], id_width=2, distance_width=2)
    assert not hasattr(label, "__dict__")
    assert HLDLabel.from_bits(label.to_bits()) == label
