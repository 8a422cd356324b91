"""Batched DWT kernels: per-row bit-identity with the single-signal path.

The arena engine (:mod:`repro.simulation.arena`) replaces per-node
``forward``/``inverse`` transform calls with one batched pass over a stacked
``(N, d)`` matrix.  Its determinism contract therefore rests entirely on the
guarantee pinned here: row ``r`` of every ``*_batch`` output is byte-for-byte
equal to the corresponding single-signal call on row ``r`` — across wavelets,
decomposition depths, odd signal lengths and single-row batches.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import WaveletError
from repro.wavelets.dwt import (
    dwt_single,
    dwt_single_batch,
    idwt_single,
    idwt_single_batch,
    wavedec,
    wavedec_batch,
    waverec,
    waverec_batch,
)
from repro.wavelets.transform import FourierTransform, IdentityTransform, WaveletTransform

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
    approx, detail, padded = dwt_single_batch(signals, wavelet)
    for row in range(signals.shape[0]):
        ref_approx, ref_detail, ref_padded = dwt_single(signals[row], wavelet)
        assert padded == ref_padded
        assert_same_bytes(approx[row], ref_approx)
        assert_same_bytes(detail[row], ref_detail)


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("wavelet", WAVELETS)
def test_idwt_single_batch_matches_per_row(length, wavelet):
    signals = stacked_signals(5, length, seed=1)
    approx, detail, padded = dwt_single_batch(signals, wavelet)
    rebuilt = idwt_single_batch(approx, detail, wavelet, padded)
    for row in range(signals.shape[0]):
        assert_same_bytes(
            rebuilt[row], idwt_single(approx[row], detail[row], wavelet, padded)
        )


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("wavelet", WAVELETS)
@pytest.mark.parametrize("levels", [1, 4])
def test_wavedec_batch_matches_per_row(length, wavelet, levels):
    signals = stacked_signals(4, length, seed=2)
    bands, pad_flags = wavedec_batch(signals, wavelet, levels)
    for row in range(signals.shape[0]):
        reference = wavedec(signals[row], wavelet, levels)
        assert len(bands) == len(reference.arrays)
        assert pad_flags == reference.pad_flags
        for band_matrix, band_values in zip(bands, reference.arrays):
            assert_same_bytes(band_matrix[row], band_values)


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("wavelet", WAVELETS)
def test_waverec_batch_matches_per_row(length, wavelet):
    signals = stacked_signals(4, length, seed=3)
    bands, pad_flags = wavedec_batch(signals, wavelet, 4)
    rebuilt = waverec_batch(bands, pad_flags, wavelet, original_length=length)
    for row in range(signals.shape[0]):
        reference = wavedec(signals[row], wavelet, 4)
        assert_same_bytes(rebuilt[row], waverec(reference))


def test_single_row_batch_is_supported():
    """N=1: the arena engine's smallest stacking still round-trips exactly."""

    signals = stacked_signals(1, 287, seed=4)
    bands, pad_flags = wavedec_batch(signals, "sym2", 4)
    rebuilt = waverec_batch(bands, pad_flags, "sym2", original_length=287)
    assert_same_bytes(rebuilt[0], waverec(wavedec(signals[0], "sym2", 4)))


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


def test_default_batch_implementation_loops_per_row():
    """Transforms without a batched kernel fall back to per-row calls."""

    transform = FourierTransform(48)
    matrix = stacked_signals(4, 48, seed=7)
    forward = transform.forward_batch(matrix)
    for row in range(matrix.shape[0]):
        assert_same_bytes(forward[row], transform.forward(matrix[row]))
    inverse = transform.inverse_batch(forward)
    for row in range(matrix.shape[0]):
        assert_same_bytes(inverse[row], transform.inverse(forward[row]))


def test_batch_shape_validation():
    transform = WaveletTransform(64)
    with pytest.raises(WaveletError):
        transform.forward_batch(np.zeros(64))  # 1-D: must be stacked
    with pytest.raises(WaveletError):
        transform.forward_batch(np.zeros((3, 63)))
    with pytest.raises(WaveletError):
        transform.inverse_batch(np.zeros((3, transform.coefficient_size() + 1)))
