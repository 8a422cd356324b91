"""Tests for the bit-level reader/writer oracle the vectorized packer is pinned to."""

import pytest

from repro.exceptions import CodecError
from tests.oracles.bitstream import BitReader, BitWriter


def test_write_read_single_bits():
    writer = BitWriter()
    bits = [1, 0, 1, 1, 0, 0, 1, 0, 1]
    for bit in bits:
        writer.write_bit(bit)
    reader = BitReader(writer.getvalue(), writer.bit_length)
    assert [reader.read_bit() for _ in bits] == bits


def test_write_read_fixed_width_integers():
    writer = BitWriter()
    values = [(5, 3), (0, 1), (1023, 10), (7, 3)]
    for value, width in values:
        writer.write_bits(value, width)
    reader = BitReader(writer.getvalue(), writer.bit_length)
    assert [reader.read_bits(width) for _, width in values] == [v for v, _ in values]


def test_unary_roundtrip():
    writer = BitWriter()
    for count in [0, 1, 5, 13]:
        writer.write_unary(count)
    reader = BitReader(writer.getvalue(), writer.bit_length)
    assert [reader.read_unary() for _ in range(4)] == [0, 1, 5, 13]


def test_bit_length_tracks_written_bits():
    writer = BitWriter()
    writer.write_bits(3, 2)
    writer.write_unary(4)
    assert writer.bit_length == 2 + 5


def test_value_too_large_for_width_raises():
    writer = BitWriter()
    with pytest.raises(CodecError):
        writer.write_bits(8, 3)


def test_invalid_bit_raises():
    writer = BitWriter()
    with pytest.raises(CodecError):
        writer.write_bit(2)


def test_reading_past_end_raises():
    writer = BitWriter()
    writer.write_bit(1)
    reader = BitReader(writer.getvalue(), writer.bit_length)
    reader.read_bit()
    with pytest.raises(CodecError):
        reader.read_bit()


def test_bit_length_larger_than_data_raises():
    with pytest.raises(CodecError):
        BitReader(b"\x00", 9)


def test_remaining_counts_down():
    writer = BitWriter()
    writer.write_bits(5, 4)
    reader = BitReader(writer.getvalue(), writer.bit_length)
    assert reader.remaining == 4
    reader.read_bits(3)
    assert reader.remaining == 1
