"""Differential tests: packed bit layer vs. the frozen string-backed reference.

The word-packed :mod:`repro.encoding.bitio` must be observationally
identical to the original character-per-bit implementation preserved in
``tests/bitio_reference.py``.  Hypothesis drives both through the
same operations — value semantics, slicing, concatenation, byte packing,
writer/reader op sequences and the Elias codes — and every divergence is a
bug.  A second group asserts that stores saved by the pre-packing code still
load byte-identically and answer identically (fixtures under
``tests/data/`` were written by the string-backed implementation).
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest
from hypothesis import given, strategies as st

import bitio_reference as ref
from repro.encoding.bitio import BitError, BitReader, BitWriter, Bits
from bitio_extras import decode_unary, encode_unary, peek_bit, reader_from_bytes, seek
from strategies import monotone_sequences

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

bit_strings = st.text(alphabet="01", max_size=160)
small_ints = st.integers(min_value=0, max_value=1 << 40)


class TestBitsDifferential:
    @given(bit_strings)
    def test_construction_and_views(self, data):
        packed = Bits(data)
        reference = ref.Bits(data)
        assert packed.data == reference.data
        assert len(packed) == len(reference)
        assert packed.to_int() == reference.to_int()
        assert bool(packed) == bool(reference)
        assert list(packed) == list(reference)
        assert str(packed) == str(reference)

    @given(bit_strings, bit_strings)
    def test_concatenation_and_equality(self, a, b):
        assert (Bits(a) + Bits(b)).data == (ref.Bits(a) + ref.Bits(b)).data
        assert (Bits(a) == Bits(b)) == (ref.Bits(a) == ref.Bits(b))

    @given(
        bit_strings,
        st.integers(min_value=-200, max_value=200),
        st.integers(min_value=-200, max_value=200),
        st.sampled_from([None, 1, 2, -1, -3]),
    )
    def test_slicing(self, data, start, stop, step):
        assert Bits(data)[start:stop:step].data == ref.Bits(data)[start:stop:step].data

    @given(bit_strings, st.integers(min_value=-200, max_value=200))
    def test_indexing(self, data, index):
        try:
            expected = ref.Bits(data)[index].data
        except IndexError:
            with pytest.raises(IndexError):
                Bits(data)[index]
        else:
            assert Bits(data)[index].data == expected

    @given(small_ints)
    def test_from_int_no_width(self, value):
        assert Bits.from_int(value).data == ref.Bits.from_int(value).data

    @given(small_ints, st.integers(min_value=0, max_value=64))
    def test_from_int_width(self, value, width):
        try:
            expected = ref.Bits.from_int(value, width).data
        except BitError:
            with pytest.raises(BitError):
                Bits.from_int(value, width)
        else:
            assert Bits.from_int(value, width).data == expected

    @given(bit_strings)
    def test_to_bytes(self, data):
        assert Bits(data).to_bytes() == ref.Bits(data).to_bytes()

    @given(bit_strings)
    def test_from_bytes_round_trip(self, data):
        payload = ref.Bits(data).to_bytes()
        unpacked = Bits.from_bytes(payload, len(data))
        assert unpacked.data == data
        assert Bits.from_bytes(memoryview(payload), len(data)) == unpacked

    @given(bit_strings)
    def test_hashable_consistent_with_equality(self, data):
        assert hash(Bits(data)) == hash(Bits(data))
        assert Bits(data) == Bits(data)

    def test_invalid_characters_match_reference(self):
        for bad in ("01x", "2", "0 1", "0_1", "+1", "-1", "０1"):
            with pytest.raises(BitError):
                Bits(bad)
            with pytest.raises(BitError):
                ref.Bits(bad)


# one writer op: (kind, payload)
writer_ops = st.one_of(
    st.tuples(st.just("bit"), st.integers(min_value=0, max_value=1)),
    st.tuples(st.just("bits"), bit_strings),
    st.tuples(
        st.just("int"),
        st.tuples(small_ints, st.integers(min_value=0, max_value=64)),
    ),
    st.tuples(st.just("zeros"), st.integers(min_value=0, max_value=70)),
    st.tuples(st.just("unary"), st.integers(min_value=0, max_value=70)),
)


def _apply_writer_op(writer, op):
    kind, payload = op
    if kind == "bit":
        writer.write_bit(payload)
    elif kind == "bits":
        writer.write_bits(payload)
    elif kind == "int":
        value, width = payload
        writer.write_int(value, width)
    elif kind == "zeros":
        writer.write_zeros(payload)
    else:
        writer.write_unary(payload)


class TestWriterReaderDifferential:
    @given(st.lists(writer_ops, max_size=30))
    def test_writer_sequences(self, ops):
        packed_writer = BitWriter()
        reference_writer = ref.BitWriter()
        for op in ops:
            try:
                _apply_writer_op(reference_writer, op)
            except BitError:
                with pytest.raises(BitError):
                    _apply_writer_op(packed_writer, op)
            else:
                _apply_writer_op(packed_writer, op)
            assert len(packed_writer) == len(reference_writer)
        assert packed_writer.getvalue().data == reference_writer.getvalue().data

    @given(bit_strings, st.data())
    def test_reader_sequences(self, data, draw):
        packed_reader = BitReader(Bits(data))
        reference_reader = ref.BitReader(ref.Bits(data))
        for _ in range(draw.draw(st.integers(min_value=0, max_value=20))):
            op = draw.draw(
                st.sampled_from(["bit", "bits", "int", "unary", "peek", "seek"])
            )
            if op == "seek":
                position = draw.draw(st.integers(min_value=0, max_value=len(data)))
                seek(packed_reader, position)
                reference_reader.seek(position)
                continue
            count = draw.draw(st.integers(min_value=0, max_value=12))
            try:
                if op == "bit":
                    expected = reference_reader.read_bit()
                elif op == "bits":
                    expected = reference_reader.read_bits(count).data
                elif op == "int":
                    expected = reference_reader.read_int(count)
                elif op == "unary":
                    expected = reference_reader.read_unary()
                else:
                    expected = reference_reader.peek_bit()
            except BitError:
                with pytest.raises(BitError):
                    if op == "bit":
                        packed_reader.read_bit()
                    elif op == "bits":
                        packed_reader.read_bits(count)
                    elif op == "int":
                        packed_reader.read_int(count)
                    elif op == "unary":
                        packed_reader.read_unary()
                    else:
                        peek_bit(packed_reader)
                # a failed read must leave both cursors in agreement
                seek(packed_reader, reference_reader.position)
                continue
            if op == "bit":
                assert packed_reader.read_bit() == expected
            elif op == "bits":
                assert packed_reader.read_bits(count).data == expected
            elif op == "int":
                assert packed_reader.read_int(count) == expected
            elif op == "unary":
                assert packed_reader.read_unary() == expected
            else:
                assert peek_bit(packed_reader) == expected
            assert packed_reader.position == reference_reader.position

    @given(bit_strings)
    def test_reader_from_bytes_matches_wrapping(self, data):
        payload = Bits(data).to_bytes()
        direct = reader_from_bytes(memoryview(payload), len(data))
        wrapped = BitReader(Bits.from_bytes(payload, len(data)))
        assert direct.remaining() == wrapped.remaining() == len(data)
        for _ in range(len(data)):
            assert direct.read_bit() == wrapped.read_bit()


class TestCodecsDifferential:
    @given(st.lists(small_ints, max_size=20))
    def test_gamma_bitstream_identical(self, values):
        packed_writer = BitWriter()
        reference_writer = ref.BitWriter()
        for value in values:
            packed_writer.write_gamma(value)
            ref.encode_gamma(reference_writer, value)
        packed = packed_writer.getvalue()
        assert packed.data == reference_writer.getvalue().data
        reader = BitReader(packed)
        assert [reader.read_gamma() for _ in values] == values

    @given(st.lists(small_ints, max_size=20))
    def test_delta_bitstream_identical(self, values):
        packed_writer = BitWriter()
        reference_writer = ref.BitWriter()
        for value in values:
            packed_writer.write_delta(value)
            ref.encode_delta(reference_writer, value)
        packed = packed_writer.getvalue()
        assert packed.data == reference_writer.getvalue().data
        reader = BitReader(packed)
        assert [reader.read_delta() for _ in values] == values

    @given(st.lists(st.integers(min_value=0, max_value=300), max_size=12))
    def test_unary_bitstream_identical(self, values):
        packed_writer = BitWriter()
        reference_writer = ref.BitWriter()
        for value in values:
            encode_unary(packed_writer, value)
            encode_unary(reference_writer, value)
        packed = packed_writer.getvalue()
        assert packed.data == reference_writer.getvalue().data
        reader = BitReader(packed)
        assert [decode_unary(reader) for _ in values] == values

    @given(monotone_sequences())
    def test_monotone_bitstream_identical(self, values):
        packed_writer = BitWriter()
        reference_writer = ref.BitWriter()
        packed_writer.write_monotone(values)
        ref.encode_monotone(reference_writer, values)
        packed = packed_writer.getvalue()
        assert packed.data == reference_writer.getvalue().data
        assert BitReader(packed).read_monotone() == values


#: the reader's field decoders and their bit-by-bit reference twins
FIELD_DECODERS = {
    "gamma": (BitReader.read_gamma, ref.decode_gamma),
    "delta": (BitReader.read_delta, ref.decode_delta),
    "prefixed": (
        lambda reader: reader.read_prefixed_bits().data,
        lambda reader: ref.decode_prefixed_bits(reader).data,
    ),
    "monotone": (BitReader.read_monotone, ref.decode_monotone),
    "bit": (BitReader.read_bit, ref.BitReader.read_bit),
}

encoded_fields = st.one_of(
    st.tuples(st.just("gamma"), small_ints),
    st.tuples(st.just("delta"), small_ints),
    st.tuples(st.just("prefixed"), bit_strings),
    st.tuples(st.just("monotone"), monotone_sequences()),
    st.tuples(st.just("bit"), st.integers(min_value=0, max_value=1)),
)


def _write_field(writer: BitWriter, kind: str, value) -> None:
    if kind == "gamma":
        ref.encode_gamma(writer, value)
    elif kind == "delta":
        ref.encode_delta(writer, value)
    elif kind == "prefixed":
        ref.encode_gamma(writer, len(value))
        writer.write_bits(value)
    elif kind == "monotone":
        ref.encode_monotone(writer, value)
    else:
        writer.write_bit(value)


def _assert_decoders_agree(data: str, kinds) -> None:
    """Equal values and cursors up to the first failure, then one error type."""
    packed = BitReader(Bits(data))
    reference = ref.BitReader(data)
    for kind in kinds:
        ours, theirs = FIELD_DECODERS[kind]
        try:
            expected = theirs(reference)
        except ValueError as error:
            with pytest.raises(ValueError) as raised:
                ours(packed)
            assert type(raised.value) is type(error), kind
            return
        assert ours(packed) == expected, kind
        assert packed.position == reference.position, kind


class TestFieldDecodersDifferential:
    """``BitReader``'s field decoders, the one decode layer of every label
    parser, against the string-backed decoders of ``bitio_reference``."""

    @given(st.lists(encoded_fields, max_size=8), st.data())
    def test_encoded_fields_and_their_truncations(self, items, draw):
        writer = BitWriter()
        for kind, value in items:
            _write_field(writer, kind, value)
        data = writer.getvalue().data
        kinds = [kind for kind, _ in items]
        _assert_decoders_agree(data, kinds)
        cut = draw.draw(st.integers(min_value=0, max_value=len(data)))
        _assert_decoders_agree(data[:cut], kinds)

    @given(bit_strings, st.lists(st.sampled_from(sorted(FIELD_DECODERS)), max_size=10))
    def test_arbitrary_bits(self, data, kinds):
        _assert_decoders_agree(data, kinds)


class TestLegacyStoreCompatibility:
    """Stores written by the string-backed code must be bit-for-bit stable."""

    @pytest.fixture(scope="class")
    def expected(self):
        with open(os.path.join(DATA_DIR, "legacy_store_expected.json")) as handle:
            return json.load(handle)

    @pytest.mark.parametrize("name", ["freedman", "hld", "kdistance"])
    def test_legacy_store_round_trip(self, expected, name):
        from repro.store import LabelStore, QueryEngine

        record = expected[name]
        path = os.path.join(DATA_DIR, f"legacy_store_{name}.bin")
        store = LabelStore.load(path)
        assert store.n == record["n"]
        assert store.total_label_bits == record["total_label_bits"]
        assert [store.bit_length(i) for i in range(8)] == record["bit_lengths_head"]
        # re-serialisation is byte-identical to what the old code wrote
        assert hashlib.sha256(store.to_bytes()).hexdigest() == record["sha256"]
        # and the served answers are unchanged
        engine = QueryEngine(store)
        pairs = [tuple(pair) for pair in record["pairs"]]
        assert engine.batch_query(pairs) == record["answers"]

    @pytest.mark.parametrize("name", ["freedman", "hld", "kdistance"])
    def test_legacy_labels_reencode_identically(self, expected, name):
        """parse -> to_bits -> to_bytes reproduces the stored payload."""
        from repro.store import LabelStore

        path = os.path.join(DATA_DIR, f"legacy_store_{name}.bin")
        store = LabelStore.load(path)
        scheme = store.make_scheme()
        for node in range(store.n):
            bits = store.label_bits(node)
            label = scheme.parse(bits)
            assert label.to_bits() == bits
            assert bits.to_bytes() == bytes(store.raw(node))
