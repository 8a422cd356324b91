"""Tests for Elias gamma coding."""

import numpy as np
import pytest

from repro.compression.elias import elias_gamma_decode_array, elias_gamma_encode
from repro.exceptions import CodecError


def elias_gamma_decode(payload, bit_length, count):
    return elias_gamma_decode_array(payload, bit_length, count).tolist()


def test_known_code_lengths():
    # gamma(1) = "1" (1 bit), gamma(2) = "010" (3 bits), gamma(5) = "00101" (5 bits).
    assert [elias_gamma_encode([value])[1] for value in (1, 2, 5, 255)] == [1, 3, 5, 15]
    assert elias_gamma_encode([5]) == (bytes([0b00101000]), 5, 1)


def test_roundtrip_small_values():
    values = [1, 2, 3, 4, 5, 6, 7, 8, 15, 16, 255, 256]
    payload, bits, count = elias_gamma_encode(values)
    assert elias_gamma_decode(payload, bits, count) == values


def test_roundtrip_random_values():
    rng = np.random.default_rng(0)
    values = rng.integers(1, 1_000_000, size=300).tolist()
    payload, bits, count = elias_gamma_encode(values)
    assert elias_gamma_decode(payload, bits, count) == values


def test_bit_length_matches_sum_of_code_lengths():
    values = [1, 7, 300, 42]
    _, bits, _ = elias_gamma_encode(values)
    assert bits == sum(2 * v.bit_length() - 1 for v in values)


def test_small_gaps_compress_well():
    ones = [1] * 1000
    payload, bits, _ = elias_gamma_encode(ones)
    assert bits == 1000
    assert len(payload) == 125


def test_zero_rejected():
    with pytest.raises(CodecError):
        elias_gamma_encode([0])


def test_negative_rejected():
    with pytest.raises(CodecError):
        elias_gamma_encode([3, -1])


def test_decode_with_leftover_bits_raises():
    payload, bits, count = elias_gamma_encode([1, 2, 3])
    with pytest.raises(CodecError):
        elias_gamma_decode(payload, bits, count - 1)


def test_empty_sequence():
    payload, bits, count = elias_gamma_encode([])
    assert count == 0
    assert elias_gamma_decode(payload, bits, count) == []


@pytest.mark.parametrize("rows,count", [(1, 7), (3, 1), (40, 500), (9, 9000)])
def test_matrix_encodes_each_row_as_the_one_dimensional_call(rows, count):
    """Several chunks, rows wider than a chunk, a one-row matrix: same streams."""

    values = np.random.default_rng(rows + count).integers(1, 1 << 20, size=(rows, count))
    encoded = elias_gamma_encode(values)
    assert encoded == [elias_gamma_encode(row) for row in values]
    for (payload, bit_length, decoded_count), row in zip(encoded, values):
        assert elias_gamma_decode(payload, bit_length, decoded_count) == row.tolist()


def test_matrix_of_no_rows_encodes_to_no_streams():
    assert elias_gamma_encode(np.zeros((0, 5), dtype=np.int64)) == []


def test_matrix_with_a_non_positive_value_is_rejected_like_its_row():
    values = np.arange(1, 13).reshape(3, 4)
    values[1, 2] = 0
    with pytest.raises(CodecError, match="got 0"):
        elias_gamma_encode(values)
