"""Stacked DWT calls: per-row bit-identity with the single-signal call.

The wavelet layer works along the last axis, and a sharing scheme's row pass
(:meth:`repro.core.jwins.JwinsScheme.prepare_rows`) transforms many nodes'
``(n, d)`` rows in one call where a one-row pass transforms one.  That the two
produce the same bytes rests entirely on the guarantee pinned here: row ``r``
of every stacked output is byte-for-byte equal to the same call on row ``r``
alone — across wavelets, decomposition depths, odd signal lengths, leading
shapes and single-row stacks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import WaveletError
from repro.wavelets.dwt import dwt_single, idwt_single, wavedec, waverec
from repro.wavelets.packing import pack_coefficients, unpack_coefficients
from repro.wavelets.transform import IdentityTransform, WaveletTransform

# Shortest legal, shorter than db4's half-length (reference fallback), odd and
# even below one filter length, then even, power-of-two, odd (the d=287 toy
# model) and round.
LENGTHS = [2, 3, 6, 7, 16, 64, 287, 1000]
WAVELETS = ["haar", "sym2", "db4"]


def stacked_signals(rows: int, length: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    signals = rng.normal(size=(rows, length))
    signals[rng.random(signals.shape) < 0.1] = -0.0
    return signals


def assert_same_bytes(actual: np.ndarray, expected: np.ndarray) -> None:
    """Raw-byte equality: unlike ``==`` it tells -0.0 from 0.0."""

    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("wavelet", WAVELETS)
def test_dwt_single_batch_matches_per_row(length, wavelet):
    signals = stacked_signals(5, length)
    approx, detail, padded = dwt_single(signals, wavelet)
    for row in range(signals.shape[0]):
        ref_approx, ref_detail, ref_padded = dwt_single(signals[row], wavelet)
        assert padded == ref_padded
        assert_same_bytes(approx[row], ref_approx)
        assert_same_bytes(detail[row], ref_detail)


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("wavelet", WAVELETS)
def test_idwt_single_batch_matches_per_row(length, wavelet):
    signals = stacked_signals(5, length, seed=1)
    approx, detail, padded = dwt_single(signals, wavelet)
    rebuilt = idwt_single(approx, detail, wavelet, padded)
    for row in range(signals.shape[0]):
        assert_same_bytes(
            rebuilt[row], idwt_single(approx[row], detail[row], wavelet, padded)
        )


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("wavelet", WAVELETS)
@pytest.mark.parametrize("levels", [1, 4])
def test_wavedec_batch_matches_per_row(length, wavelet, levels):
    signals = stacked_signals(4, length, seed=2)
    stacked = wavedec(signals, wavelet, levels)
    for row in range(signals.shape[0]):
        reference = wavedec(signals[row], wavelet, levels)
        assert len(stacked.arrays) == len(reference.arrays)
        assert stacked.pad_flags == reference.pad_flags
        assert stacked.original_length == length
        for band_matrix, band_values in zip(stacked.arrays, reference.arrays):
            assert_same_bytes(band_matrix[row], band_values)


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("wavelet", WAVELETS)
def test_waverec_batch_matches_per_row(length, wavelet):
    signals = stacked_signals(4, length, seed=3)
    rebuilt = waverec(wavedec(signals, wavelet, 4))
    for row in range(signals.shape[0]):
        reference = wavedec(signals[row], wavelet, 4)
        assert_same_bytes(rebuilt[row], waverec(reference))


def test_single_row_batch_is_supported():
    """N=1: a one-row pass's ``[None]`` view still round-trips exactly."""

    signals = stacked_signals(1, 287, seed=4)
    rebuilt = waverec(wavedec(signals, "sym2", 4))
    assert_same_bytes(rebuilt[0], waverec(wavedec(signals[0], "sym2", 4)))


@pytest.mark.parametrize("lead", [(), (1,), (5,), (2, 3)], ids=str)
@pytest.mark.parametrize("length", [7, 287])
def test_leading_axes_pass_through_every_entry_point(lead, length):
    """Any leading shape: bands, packed vector and round trip equal the row's own."""

    signals = np.random.default_rng(8).normal(size=lead + (length,))
    stacked = wavedec(signals, "db4", 4)
    packed, layout = pack_coefficients(stacked)
    assert packed.shape == lead + (layout.total_size,)
    assert sum(band.shape[-1] for band in stacked.arrays) == layout.total_size
    unpacked = unpack_coefficients(packed, layout)
    assert all(np.shares_memory(band, packed) for band in unpacked.arrays)
    rebuilt = waverec(unpacked)
    assert rebuilt.shape == signals.shape
    for index in np.ndindex(*lead):
        row_packed, row_layout = pack_coefficients(wavedec(signals[index], "db4", 4))
        assert row_layout == layout
        assert_same_bytes(packed[index], row_packed)
        assert_same_bytes(rebuilt[index], waverec(unpack_coefficients(row_packed, layout)))


def test_non_contiguous_rows_transform_like_their_copies():
    """A strided row view (every other row of a wider matrix) needs no copy first."""

    wide = stacked_signals(6, 2 * 287, seed=9)
    view = wide[::2, ::2]
    assert not view.flags.c_contiguous
    transform = WaveletTransform(287)
    forward = transform.forward_batch(view)
    assert_same_bytes(forward, transform.forward_batch(view.copy()))
    assert_same_bytes(forward[1], transform.forward(view[1]))
    strided = np.repeat(forward, 2, axis=1)[:, ::2]
    assert not strided.flags.c_contiguous
    assert_same_bytes(transform.inverse_batch(strided), transform.inverse_batch(forward))


def test_zero_dimensional_and_too_short_inputs_raise():
    for call in (
        lambda: dwt_single(np.float64(1.0)),
        lambda: dwt_single(np.zeros((3, 1))),
        lambda: idwt_single(np.float64(1.0), np.float64(1.0)),
        lambda: idwt_single(np.zeros((2, 4)), np.zeros((3, 4))),
        lambda: wavedec(np.float64(1.0)),
        lambda: wavedec(np.zeros((3, 0))),
        lambda: unpack_coefficients(np.float64(1.0), WaveletTransform(16).layout),
        lambda: unpack_coefficients(np.zeros((3, 15)), WaveletTransform(16).layout),
    ):
        with pytest.raises(WaveletError):
            call()


# -- ModelTransform batch entry points ---------------------------------------------


@pytest.mark.parametrize("model_size", [64, 287])
def test_wavelet_transform_batch_matches_per_row(model_size):
    transform = WaveletTransform(model_size)
    matrix = stacked_signals(6, model_size, seed=5)
    forward = transform.forward_batch(matrix)
    assert forward.shape == (6, transform.coefficient_size())
    for row in range(matrix.shape[0]):
        assert_same_bytes(forward[row], transform.forward(matrix[row]))
    inverse = transform.inverse_batch(forward)
    for row in range(matrix.shape[0]):
        assert_same_bytes(inverse[row], transform.inverse(forward[row]))


def test_identity_transform_batch_copies_rows():
    transform = IdentityTransform(32)
    matrix = stacked_signals(3, 32, seed=6)
    forward = transform.forward_batch(matrix)
    assert_same_bytes(forward, matrix)
    assert not np.shares_memory(forward, matrix)
    assert_same_bytes(transform.inverse_batch(forward), matrix)


def test_batch_shape_validation():
    transform = WaveletTransform(64)
    with pytest.raises(WaveletError):
        transform.forward_batch(np.zeros(64))  # 1-D: must be stacked
    with pytest.raises(WaveletError):
        transform.forward_batch(np.zeros((3, 63)))
    with pytest.raises(WaveletError):
        transform.inverse_batch(np.zeros((3, transform.coefficient_size() + 1)))
    with pytest.raises(WaveletError):
        transform.inverse_batch(np.zeros((2, 3, transform.coefficient_size())))
    # The flat entry points flatten, as they always did, and check the length.
    assert transform.forward(np.zeros((8, 8))).shape == (transform.coefficient_size(),)
    with pytest.raises(WaveletError):
        transform.inverse(np.zeros((3, transform.coefficient_size())))


@pytest.mark.parametrize("entry", ["forward", "forward_batch"])
def test_both_forward_shapes_check_the_precomputed_layout(entry, monkeypatch):
    transform = WaveletTransform(64)
    monkeypatch.setattr(transform, "levels", transform.levels - 1)  # layout now stale
    data = np.zeros(64) if entry == "forward" else np.zeros((2, 64))
    with pytest.raises(WaveletError, match="precomputed layout"):
        getattr(transform, entry)(data)
