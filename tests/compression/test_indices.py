"""Tests for the index codecs (sparsification metadata)."""

import numpy as np
import pytest

from repro.compression import elias as elias_module
from repro.compression.indices import (
    EliasGammaIndexCodec,
    EncodedIndexRows,
    RawIndexCodec,
    random_indices_from_seed,
)
from repro.exceptions import CodecError
from tests.oracles.codecs import elias_gamma_encode_reference


@pytest.fixture
def indices():
    rng = np.random.default_rng(0)
    return np.sort(rng.choice(5000, size=800, replace=False))


def test_raw_codec_roundtrip(indices):
    codec = RawIndexCodec()
    encoded = codec.encode(indices, 5000)
    assert np.array_equal(codec.decode(encoded), indices)
    assert encoded.size_bytes >= 4 * indices.size


def test_elias_codec_roundtrip(indices):
    codec = EliasGammaIndexCodec()
    encoded = codec.encode(indices, 5000)
    assert np.array_equal(codec.decode(encoded), indices)


def test_elias_is_smaller_than_raw(indices):
    raw = RawIndexCodec().encode(indices, 5000)
    gamma = EliasGammaIndexCodec().encode(indices, 5000)
    assert gamma.size_bytes < raw.size_bytes / 2


def test_elias_handles_unsorted_input():
    codec = EliasGammaIndexCodec()
    shuffled = np.array([9, 3, 7, 0, 5])
    encoded = codec.encode(shuffled, 10)
    assert np.array_equal(codec.decode(encoded), np.sort(shuffled))


def test_elias_dense_selection_costs_about_one_bit_per_index():
    codec = EliasGammaIndexCodec()
    encoded = codec.encode(np.arange(8000), 8000)
    assert encoded.size_bytes < 8000 / 8 + 64


def test_duplicate_indices_rejected():
    with pytest.raises(CodecError):
        EliasGammaIndexCodec().encode(np.array([1, 1, 2]), 10)


def test_out_of_range_indices_rejected():
    with pytest.raises(CodecError):
        RawIndexCodec().encode(np.array([0, 10]), 10)


def test_decoding_with_wrong_codec_raises(indices):
    encoded = RawIndexCodec().encode(indices, 5000)
    with pytest.raises(CodecError):
        EliasGammaIndexCodec().decode(encoded)


def test_random_indices_from_seed_deterministic():
    a = random_indices_from_seed(7, 50, 1000)
    b = random_indices_from_seed(7, 50, 1000)
    assert np.array_equal(a, b)
    assert np.unique(a).size == 50


def test_random_indices_from_seed_are_sorted_within_the_universe():
    indices = random_indices_from_seed(1, 25, 100)
    assert indices.dtype == np.int64 and indices.size == 25
    assert indices.min() >= 0 and indices.max() < 100
    assert np.all(np.diff(indices) > 0)


def test_random_indices_from_seed_depend_on_the_seed():
    assert not np.array_equal(
        random_indices_from_seed(1, 100, 1000), random_indices_from_seed(2, 100, 1000)
    )


def test_random_indices_from_seed_may_take_the_whole_universe():
    assert np.array_equal(random_indices_from_seed(3, 10, 10), np.arange(10))


def test_random_indices_too_many_raises():
    with pytest.raises(CodecError):
        random_indices_from_seed(1, 11, 10)


# -- the matrix contract: every row is encoded exactly as the 1-D call would --------
UNIVERSE = 342


def _index_rows(rows: int, count: int, universe: int = UNIVERSE) -> np.ndarray:
    rng = np.random.default_rng(rows * 1000 + count)
    return np.stack(
        [np.sort(rng.choice(universe, size=count, replace=False)) for _ in range(rows)]
    )


def _assert_rows_equal_single_calls(codec, matrix, universe):
    encoded = codec.encode(matrix, universe)
    assert isinstance(encoded, EncodedIndexRows) and len(encoded) == len(matrix)
    singles = [codec.encode(row, universe) for row in matrix]
    for row, single in zip(encoded, singles):
        assert row == single  # codec, payload, bit_length, count, universe
        assert row.size_bytes == single.size_bytes
    assert encoded.size_bytes == sum(single.size_bytes for single in singles)
    return encoded


# 234 rows of 34+1 fields fill one 8,192-field chunk exactly; 235 leaves a
# one-row chunk (packed without pad fields), 300 a shorter second chunk.
@pytest.mark.parametrize("rows", [1, 2, 234, 235, 300])
@pytest.mark.parametrize("count", [1, 34, 342])
def test_elias_matrix_form_equals_row_by_row(rows, count):
    assert elias_module._ROWS_CHUNK_FIELDS // (34 + 1) == 234
    codec = EliasGammaIndexCodec()
    matrix = _index_rows(rows, count)
    encoded = _assert_rows_equal_single_calls(codec, matrix, UNIVERSE)
    for row, indices in zip(encoded, matrix):
        assert np.array_equal(codec.decode(row), indices)


def test_elias_matrix_form_with_rows_wider_than_a_chunk():
    universe = 3 * elias_module._ROWS_CHUNK_FIELDS
    matrix = _index_rows(3, elias_module._ROWS_CHUNK_FIELDS + 5, universe)
    _assert_rows_equal_single_calls(EliasGammaIndexCodec(), matrix, universe)


def test_elias_matrix_form_sorts_an_unsorted_row_like_the_single_call():
    codec = EliasGammaIndexCodec()
    matrix = _index_rows(4, 34)
    matrix[2] = matrix[2][::-1]
    encoded = _assert_rows_equal_single_calls(codec, matrix, UNIVERSE)
    assert np.array_equal(codec.decode(encoded[2]), np.sort(matrix[2]))
    assert np.array_equal(matrix[2], np.sort(matrix[2])[::-1])  # input untouched


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda row: row.__setitem__(1, row[0]),  # duplicate
        lambda row: row.__setitem__(-1, UNIVERSE),  # past the universe
        lambda row: row.__setitem__(0, -1),  # negative
    ],
    ids=["duplicate", "too-large", "negative"],
)
@pytest.mark.parametrize("codec", [EliasGammaIndexCodec(), RawIndexCodec()], ids=["elias", "raw"])
def test_matrix_form_rejects_a_bad_row_like_the_single_call(codec, corrupt):
    matrix = _index_rows(5, 34)
    corrupt(matrix[3])
    with pytest.raises(CodecError) as single:
        codec.encode(matrix[3], UNIVERSE)
    with pytest.raises(CodecError) as stacked:
        codec.encode(matrix, UNIVERSE)
    assert str(stacked.value) == str(single.value)
    for universe in (0, -3):
        with pytest.raises(CodecError, match="universe must be positive"):
            codec.encode(matrix[:2], universe)


def test_elias_matrix_form_codes_the_widest_gaps_and_refuses_wider_ones_like_one_row():
    universe = 1 << 40
    top = (1 << 32) - 1  # the largest gap: a 63-bit code
    matrix = np.array([[top - 1, 2 * top - 1, 2 * top], [0, 1, 2]], dtype=np.int64)
    codec = EliasGammaIndexCodec()
    encoded = _assert_rows_equal_single_calls(codec, matrix, universe)
    for row, indices in zip(encoded, matrix):
        assert row.payload == elias_gamma_encode_reference(np.diff(indices, prepend=-1))[0]
        assert np.array_equal(codec.decode(row), indices)
    matrix[0, 1:] += 1  # the middle gap becomes 2**32
    with pytest.raises(CodecError) as single:
        codec.encode(matrix[0], universe)
    with pytest.raises(CodecError) as stacked:
        codec.encode(matrix, universe)
    assert str(stacked.value) == str(single.value)


def test_raw_matrix_form_equals_row_by_row():
    codec = RawIndexCodec()
    matrix = _index_rows(7, 34)
    encoded = _assert_rows_equal_single_calls(codec, matrix, UNIVERSE)
    assert np.array_equal(codec.decode(encoded[4]), matrix[4])


def test_empty_rows_encode_to_empty_streams():
    encoded = EliasGammaIndexCodec().encode(np.zeros((3, 0), dtype=np.int64), UNIVERSE)
    assert [row.payload for row in encoded] == [b""] * 3
    assert encoded == tuple(
        EliasGammaIndexCodec().encode(np.zeros(0, dtype=np.int64), UNIVERSE) for _ in range(3)
    )


# -- input edges: what the codecs refuse and what they accept -----------------------
CODECS = [EliasGammaIndexCodec(), RawIndexCodec()]
CODEC_IDS = ["elias", "raw"]


@pytest.mark.parametrize("codec", CODECS, ids=CODEC_IDS)
def test_a_matrix_of_no_rows_encodes_to_no_rows(codec):
    encoded = codec.encode(np.zeros((0, 5), dtype=np.int64), UNIVERSE)
    assert isinstance(encoded, EncodedIndexRows) and encoded == () and encoded.size_bytes == 0


@pytest.mark.parametrize("codec", CODECS, ids=CODEC_IDS)
@pytest.mark.parametrize("indices", [[0.9, 2.5], [1.0, 2.0], [[0.5, 1.5]]], ids=str)
def test_non_integer_indices_are_refused_not_truncated(codec, indices):
    with pytest.raises(CodecError, match="indices must be integers"):
        codec.encode(np.asarray(indices), UNIVERSE)


@pytest.mark.parametrize("codec", CODECS, ids=CODEC_IDS)
def test_an_empty_list_still_encodes(codec):
    encoded = codec.encode([], UNIVERSE)
    assert (encoded.payload, encoded.count) == (b"", 0)
    assert codec.decode(encoded).size == 0


@pytest.mark.parametrize("codec", CODECS, ids=CODEC_IDS)
def test_a_three_dimensional_input_is_refused_by_its_shape(codec):
    with pytest.raises(CodecError, match=r"shape \(2, 2, 3\)"):
        codec.encode(np.arange(12).reshape(2, 2, 3), UNIVERSE)


# -- the record owns what it packs from ----------------------------------------------
@pytest.mark.parametrize("codec", CODECS, ids=CODEC_IDS)
@pytest.mark.parametrize("rows", [1, 3], ids=["list", "matrix"])
def test_mutating_the_indices_after_encode_changes_no_payload(codec, rows):
    indices = _index_rows(rows, 34)
    if rows == 1:
        indices = indices[0]
    untouched = codec.encode(indices.copy(), UNIVERSE)
    encoded = codec.encode(indices, UNIVERSE)  # sized now, packed below
    indices[...] = 0
    assert encoded == untouched  # compares the payload bytes
    assert encoded.size_bytes == untouched.size_bytes
