"""Tests for Elias gamma/delta codes and the auxiliary integer codes."""

import pytest
from hypothesis import given, strategies as st

from repro.encoding.bitio import BitReader, BitWriter
from repro.encoding.elias import delta_length, encode_delta, encode_gamma, gamma_length

from bitio_extras import bounded_width, decode_bounded, decode_unary, encode_bounded, encode_unary


class TestGamma:
    @pytest.mark.parametrize("value", [0, 1, 2, 3, 7, 8, 100, 12345])
    def test_round_trip(self, value):
        writer = BitWriter()
        encode_gamma(writer, value)
        assert BitReader(writer.getvalue()).read_gamma() == value

    def test_length_matches_encoding(self):
        for value in range(0, 300):
            writer = BitWriter()
            encode_gamma(writer, value)
            assert len(writer) == gamma_length(value)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            encode_gamma(BitWriter(), -1)
        with pytest.raises(ValueError):
            gamma_length(-1)

    @given(st.lists(st.integers(min_value=0, max_value=10**6), max_size=50))
    def test_concatenated_stream(self, values):
        writer = BitWriter()
        for value in values:
            encode_gamma(writer, value)
        reader = BitReader(writer.getvalue())
        assert [reader.read_gamma() for _ in values] == values
        assert reader.remaining() == 0


class TestDelta:
    @pytest.mark.parametrize("value", [0, 1, 2, 3, 7, 8, 100, 12345, 10**9])
    def test_round_trip(self, value):
        writer = BitWriter()
        encode_delta(writer, value)
        assert BitReader(writer.getvalue()).read_delta() == value

    def test_length_matches_encoding(self):
        for value in range(0, 300):
            writer = BitWriter()
            encode_delta(writer, value)
            assert len(writer) == delta_length(value)

    def test_delta_shorter_than_gamma_for_large_values(self):
        assert delta_length(10**6) < gamma_length(10**6)

    @given(st.lists(st.integers(min_value=0, max_value=10**9), max_size=50))
    def test_concatenated_stream(self, values):
        writer = BitWriter()
        for value in values:
            encode_delta(writer, value)
        reader = BitReader(writer.getvalue())
        assert [reader.read_delta() for _ in values] == values


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
