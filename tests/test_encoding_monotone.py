"""Tests for the Lemma 2.2 monotone sequence encoder."""

import pytest
from hypothesis import given

from repro.encoding.bitio import BitError, BitReader, BitWriter
from repro.encoding.monotone import MonotoneSequence

from strategies import monotone_sequences


class TestMonotoneSequence:
    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            MonotoneSequence([3, 2])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MonotoneSequence([-1, 2])

    def test_empty_sequence(self):
        sequence = MonotoneSequence([])
        assert len(sequence) == 0
        assert MonotoneSequence.from_bits(sequence.bits).to_list() == []

    def test_access(self):
        sequence = MonotoneSequence([0, 0, 3, 7, 7, 20])
        assert sequence[0] == 0
        assert sequence[2] == 3
        assert sequence[5] == 20

    def test_access_out_of_range_raises(self):
        sequence = MonotoneSequence([2, 5])
        assert sequence[-1] == 5
        with pytest.raises(IndexError):
            sequence[2]
        with pytest.raises(IndexError):
            MonotoneSequence([])[0]

    @given(monotone_sequences())
    def test_random_access_matches_list(self, values):
        sequence = MonotoneSequence(values)
        assert len(sequence) == len(values)
        assert list(sequence) == values
        for index in range(-len(values), len(values)):
            assert sequence[index] == values[index]

    def test_constructor_and_to_list_copy(self):
        values = [1, 2, 3]
        sequence = MonotoneSequence(values)
        values.append(4)
        assert sequence.to_list() == [1, 2, 3]
        sequence.to_list().append(9)
        assert len(sequence) == 3

    def test_equality(self):
        assert MonotoneSequence([1, 2]) == MonotoneSequence([1, 2])
        assert MonotoneSequence([1, 2]) != MonotoneSequence([1, 3])
        assert MonotoneSequence([1, 2]) != [1, 2]

    @pytest.mark.parametrize(
        "values",
        [[2**40], [0] * 50, [0, 2**63], [7] * 3 + [2**20]],
        ids=["one-wide", "all-zero", "huge-gap", "plateau-then-jump"],
    )
    def test_extreme_values_round_trip(self, values):
        sequence = MonotoneSequence(values)
        assert MonotoneSequence.from_bits(sequence.bits).to_list() == values

    @given(monotone_sequences())
    def test_write_appends_exactly_the_encoding(self, values):
        sequence = MonotoneSequence(values)
        writer = BitWriter()
        writer.write_bits("101")
        sequence.write(writer)
        assert writer.getvalue().data == "101" + sequence.bits.data
        assert sequence.bit_length() == len(sequence.bits)

    @given(monotone_sequences(max_length=12, max_value=200))
    def test_truncated_encoding_raises(self, values):
        """No strict prefix of an encoding parses: the format is self-delimiting."""
        data = MonotoneSequence(values).bits.data
        for cut in range(len(data)):
            with pytest.raises(BitError):
                MonotoneSequence.read(BitReader(data[:cut]))

    @given(monotone_sequences())
    def test_round_trip_property(self, values):
        sequence = MonotoneSequence(values)
        decoded = MonotoneSequence.from_bits(sequence.bits)
        assert decoded.to_list() == values

    @given(monotone_sequences())
    def test_embedded_round_trip_property(self, values):
        """The encoding is self-delimiting inside a larger stream."""
        writer = BitWriter()
        MonotoneSequence(values).write(writer)
        writer.write_bits("10110")
        reader = BitReader(writer.getvalue())
        assert MonotoneSequence.read(reader).to_list() == values
        assert reader.read_bits(5).data == "10110"

    @given(monotone_sequences(max_length=30, max_value=100))
    def test_size_bound(self, values):
        """Size stays O(s * max(1, log(M/s))) with a modest constant."""
        sequence = MonotoneSequence(values)
        s = max(len(values), 1)
        maximum = max(values) if values else 0
        import math

        per_element = max(1.0, math.log2(max(maximum, 1) / s + 1) + 1)
        assert sequence.bit_length() <= 6 * s * per_element + 32
