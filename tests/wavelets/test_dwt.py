"""Tests for the multi-level discrete wavelet transform."""

import numpy as np
import pytest

from repro.exceptions import WaveletError
from repro.wavelets.dwt import (
    dwt_single,
    idwt_single,
    max_decomposition_level,
    wavedec,
    waverec,
)
from repro.wavelets.filters import WaveletFilterBank, get_filter_bank
from tests.oracles.dwt import WAVELETS, dwt_single_reference, idwt_single_reference


@pytest.mark.parametrize("wavelet", ["haar", "db2", "sym2", "db3", "db4", "sym4"])
@pytest.mark.parametrize("length", [16, 64, 100])
def test_single_level_perfect_reconstruction(wavelet, length):
    rng = np.random.default_rng(0)
    signal = rng.normal(size=length)
    approx, detail, padded = dwt_single(signal, wavelet)
    assert approx.size == detail.size == (length + length % 2) // 2
    restored = idwt_single(approx, detail, wavelet, padded=padded)
    assert np.allclose(restored, signal, atol=1e-10)


@pytest.mark.parametrize("wavelet", ["haar", "sym2", "db4"])
@pytest.mark.parametrize("length", [17, 33, 1001])
def test_multilevel_perfect_reconstruction_odd_lengths(wavelet, length):
    rng = np.random.default_rng(1)
    signal = rng.normal(size=length)
    coefficients = wavedec(signal, wavelet, levels=4)
    restored = waverec(coefficients)
    assert restored.size == length
    assert np.allclose(restored, signal, atol=1e-9)


def test_levels_clamped_to_maximum():
    signal = np.arange(20, dtype=float)
    coefficients = wavedec(signal, "sym2", levels=10)
    assert len(coefficients.arrays) - 1 == max_decomposition_level(20, "sym2")


def test_zero_levels_is_identity():
    signal = np.arange(10, dtype=float)
    coefficients = wavedec(signal, "sym2", levels=0)
    assert len(coefficients.arrays) == 1
    assert np.allclose(waverec(coefficients), signal)


def test_energy_preserved_for_even_lengths():
    """The periodized orthogonal DWT preserves the L2 norm (Parseval)."""

    rng = np.random.default_rng(2)
    signal = rng.normal(size=256)
    coefficients = wavedec(signal, "sym2", levels=4)
    total = sum(float(np.sum(band**2)) for band in coefficients.arrays)
    assert total == pytest.approx(float(np.sum(signal**2)), rel=1e-10)


def test_linearity_of_transform():
    rng = np.random.default_rng(3)
    a = rng.normal(size=128)
    b = rng.normal(size=128)
    ca = np.concatenate(wavedec(a, "db2", 3).arrays)
    cb = np.concatenate(wavedec(b, "db2", 3).arrays)
    cab = np.concatenate(wavedec(2.0 * a - 0.5 * b, "db2", 3).arrays)
    assert np.allclose(cab, 2.0 * ca - 0.5 * cb, atol=1e-10)


def test_max_level_decreases_with_filter_length():
    assert max_decomposition_level(64, "haar") >= max_decomposition_level(64, "db4")


def test_empty_signal_raises():
    with pytest.raises(WaveletError):
        wavedec(np.zeros(0), "sym2", 2)


def test_too_short_signal_for_single_level_raises():
    with pytest.raises(WaveletError):
        dwt_single(np.zeros(1), "haar")


def test_mismatched_band_lengths_raise():
    with pytest.raises(WaveletError):
        idwt_single(np.zeros(4), np.zeros(5), "haar")


@pytest.mark.parametrize("shape", [(0,), (3, 0)])
def test_empty_bands_raise(shape):
    # dwt_single never makes them (it refuses signals under 2 samples), and
    # the cyclic extension of an empty band has nothing to wrap.
    with pytest.raises(WaveletError, match="non-empty"):
        idwt_single(np.zeros(shape), np.zeros(shape), "sym2")


@pytest.mark.parametrize("taps", [1, 3, 5])
def test_filter_bank_refuses_an_odd_tap_count(taps):
    # The kernels pair taps 2m/2m + 1 with the even/odd phase; no orthogonal
    # wavelet has an odd tap count.
    lo = np.full(taps, 0.5)
    with pytest.raises(WaveletError, match="one even length"):
        WaveletFilterBank("odd", lo, lo, lo, lo)


def test_filter_bank_refuses_filters_of_unequal_length():
    bank = get_filter_bank("db2")
    with pytest.raises(WaveletError, match="one even length"):
        WaveletFilterBank("mixed", bank.dec_lo, bank.dec_hi[:2], bank.rec_lo, bank.rec_hi)


def test_negative_levels_raise():
    with pytest.raises(WaveletError):
        wavedec(np.zeros(32), "sym2", levels=-1)


def test_coefficient_count_close_to_signal_length():
    signal = np.zeros(1000)
    coefficients = wavedec(signal, "sym2", 4)
    total_size = sum(band.shape[-1] for band in coefficients.arrays)
    assert signal.size <= total_size <= signal.size + len(coefficients.arrays) - 1


# -- vectorized vs reference equivalence ------------------------------------------------
#
# The phase-split analysis and synthesis kernels must reproduce the original
# scalar loops bit for bit (signed zeros included) — the sync-mode determinism
# pin depends on it.  Comparisons are on raw bytes: ``==`` would call -0.0 and
# 0.0 equal.

def signal_with_signed_zeros(rng, length):
    signal = rng.standard_normal(length)
    signal[rng.random(length) < 0.2] = -0.0
    signal[rng.random(length) < 0.2] = 0.0
    return signal


def test_vectorized_dwt_bit_identical_to_reference_all_wavelets():
    rng = np.random.default_rng(7)
    # From the shortest legal signal up: lengths 2..9 are shorter than some
    # filters (cyclic wrap-around, and below the 8-tap filters' half-length a
    # wrapped extension longer than the phase), then even and odd lengths of
    # ordinary size.
    for wavelet in WAVELETS:
        for length in (2, 3, 4, 5, 6, 7, 8, 9, 16, 33, 100, 257):
            signal = signal_with_signed_zeros(rng, length)
            approx, detail, padded = dwt_single(signal, wavelet)
            ref_approx, ref_detail, ref_padded = dwt_single_reference(signal, wavelet)
            assert padded == ref_padded
            assert approx.tobytes() == ref_approx.tobytes(), (wavelet, length)
            assert detail.tobytes() == ref_detail.tobytes(), (wavelet, length)
            restored = idwt_single(approx, detail, wavelet, padded)
            ref_restored = idwt_single_reference(approx, detail, wavelet, padded)
            assert restored.tobytes() == ref_restored.tobytes(), (wavelet, length)
            # Synthesis of bands that themselves hold signed zeros.
            low, high = np.split(signal_with_signed_zeros(rng, 2 * approx.size), 2)
            assert (
                idwt_single(low, high, wavelet).tobytes()
                == idwt_single_reference(low, high, wavelet).tobytes()
            ), (wavelet, length)


@pytest.mark.parametrize("length", [3, 17, 101, 1001])
def test_odd_length_signals_bit_identical_to_reference(length):
    # Odd lengths exercise the zero-padding path through the vectorized DWT.
    rng = np.random.default_rng(length)
    signal = rng.standard_normal(length)
    approx, detail, padded = dwt_single(signal, "sym2")
    ref = dwt_single_reference(signal, "sym2")
    assert padded is True and ref[2] is True
    assert approx.tobytes() == ref[0].tobytes()
    assert detail.tobytes() == ref[1].tobytes()
    assert (
        idwt_single(approx, detail, "sym2", padded).tobytes()
        == idwt_single_reference(approx, detail, "sym2", padded).tobytes()
    )


def test_zero_signal_bit_identical():
    # Negative taps times +0.0 give -0.0 products; the zero start of the
    # accumulation must absorb them exactly as the reference loop does.
    for wavelet in ("haar", "sym2", "db4"):
        approx, detail, _ = dwt_single(np.zeros(64), wavelet)
        ref_approx, ref_detail, _ = dwt_single_reference(np.zeros(64), wavelet)
        assert approx.tobytes() == ref_approx.tobytes()
        assert detail.tobytes() == ref_detail.tobytes()


def _bits(values: np.ndarray) -> list:
    return np.ascontiguousarray(values).view(np.uint64).tolist()


@pytest.mark.parametrize("wavelet", WAVELETS)
def test_stacked_rows_bit_identical_to_the_per_row_oracle_at_every_length(wavelet):
    """Every length from 2 to 300, 3 stacked rows, and each row on its own.

    The short lengths include every signal whose cyclic extension is longer
    than a phase and wraps.  Rows hold signed zeros, the middle one all -0.0.
    """

    rng = np.random.default_rng(len(wavelet))
    for length in range(2, 301):
        signals = np.stack([signal_with_signed_zeros(rng, length) for _ in range(3)])
        signals[1] = -0.0
        approx, detail, padded = dwt_single(signals, wavelet)
        restored = idwt_single(approx, detail, wavelet, padded)
        for row in range(3):
            single = dwt_single(signals[row], wavelet)
            reference = dwt_single_reference(signals[row], wavelet)
            assert single[2] == reference[2] == padded
            for band, stacked_band in enumerate((approx, detail)):
                assert _bits(single[band]) == _bits(stacked_band[row]) == _bits(reference[band])
            assert _bits(idwt_single(*single[:2], wavelet, padded)) == _bits(restored[row])
            assert _bits(restored[row]) == _bits(
                idwt_single_reference(*reference[:2], wavelet, padded)
            ), (length, row)
