"""Tests for the bit reader/writer and the Bits value type."""

import pytest
from hypothesis import given, strategies as st

from repro.encoding.bitio import BitError, BitReader, BitWriter, Bits

from bitio_extras import peek_bit, seek


class TestBits:
    def test_empty(self):
        assert len(Bits()) == 0
        assert Bits().to_int() == 0
        assert not Bits()

    def test_from_int_round_trip(self):
        assert Bits.from_int(13).data == "1101"
        assert Bits.from_int(13, 6).data == "001101"
        assert Bits.from_int(13, 6).to_int() == 13

    def test_from_int_zero_width(self):
        assert Bits.from_int(0, 0).data == ""
        with pytest.raises(BitError):
            Bits.from_int(1, 0)

    def test_from_int_overflow(self):
        with pytest.raises(BitError):
            Bits.from_int(8, 3)

    def test_rejects_negative(self):
        with pytest.raises(BitError):
            Bits.from_int(-1)

    def test_invalid_characters(self):
        with pytest.raises(BitError):
            Bits("01x")

    def test_concatenation_and_slicing(self):
        bits = Bits("101") + Bits("01")
        assert bits.data == "10101"
        assert bits[1:4].data == "010"

    @given(st.integers(min_value=0, max_value=10**9))
    def test_int_round_trip_property(self, value):
        assert Bits.from_int(value).to_int() == value

    @given(st.integers(min_value=0, max_value=255), st.integers(min_value=8, max_value=16))
    def test_padded_round_trip_property(self, value, width):
        encoded = Bits.from_int(value, width)
        assert len(encoded) == width
        assert encoded.to_int() == value


class TestBitWriterReader:
    def test_write_and_read_bits(self):
        writer = BitWriter()
        writer.write_bit(1)
        writer.write_bits("001")
        writer.write_int(5, 4)
        bits = writer.getvalue()
        assert bits.data == "10010101"

        reader = BitReader(bits)
        assert reader.read_bit() == 1
        assert reader.read_bits(3).data == "001"
        assert reader.read_int(4) == 5
        assert reader.remaining() == 0

    def test_writer_length_tracking(self):
        writer = BitWriter()
        writer.write_bits("10101")
        writer.write_int(3, 2)
        assert len(writer) == 7

    def test_reader_exhaustion(self):
        reader = BitReader(Bits("10"))
        reader.read_bits(2)
        with pytest.raises(BitError):
            reader.read_bit()

    def test_reader_seek_and_peek(self):
        reader = BitReader(Bits("1100"))
        assert peek_bit(reader) == 1
        seek(reader, 2)
        assert reader.read_bits(2).data == "00"
        with pytest.raises(BitError):
            seek(reader, 9)

    def test_write_int_rejects_negative_by_name(self):
        writer = BitWriter()
        with pytest.raises(BitError, match=r"^BitWriter\.write_int expects a non-negative"):
            writer.write_int(-1, 4)
        assert len(writer) == 0

    def test_invalid_bit(self):
        writer = BitWriter()
        with pytest.raises(BitError):
            writer.write_bit(2)

    @given(st.lists(st.integers(min_value=0, max_value=1), max_size=200))
    def test_round_trip_property(self, bits):
        writer = BitWriter()
        for bit in bits:
            writer.write_bit(bit)
        reader = BitReader(writer.getvalue())
        assert [reader.read_bit() for _ in bits] == bits
