"""Tests for wavelet filter banks."""

import numpy as np
import pytest

from repro.exceptions import WaveletError
from repro.wavelets.filters import get_filter_bank
from tests.oracles.dwt import WAVELETS


@pytest.mark.parametrize("name", WAVELETS)
def test_lowpass_sums_to_sqrt2(name):
    bank = get_filter_bank(name)
    assert bank.dec_lo.sum() == pytest.approx(np.sqrt(2.0), abs=1e-10)


@pytest.mark.parametrize("name", WAVELETS)
def test_highpass_sums_to_zero(name):
    bank = get_filter_bank(name)
    assert bank.dec_hi.sum() == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("name", WAVELETS)
def test_filters_are_orthonormal(name):
    bank = get_filter_bank(name)
    assert np.dot(bank.dec_lo, bank.dec_lo) == pytest.approx(1.0, abs=1e-10)
    assert np.dot(bank.dec_hi, bank.dec_hi) == pytest.approx(1.0, abs=1e-10)
    assert np.dot(bank.dec_lo, bank.dec_hi) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("name", WAVELETS)
def test_double_shift_orthogonality(name):
    """Shifted-by-two copies of the filters must be orthogonal (PR condition)."""

    bank = get_filter_bank(name)
    taps = bank.length
    for shift in range(2, taps, 2):
        low = np.dot(bank.dec_lo[:-shift], bank.dec_lo[shift:])
        high = np.dot(bank.dec_hi[:-shift], bank.dec_hi[shift:])
        assert low == pytest.approx(0.0, abs=1e-10)
        assert high == pytest.approx(0.0, abs=1e-10)


def test_sym2_is_alias_of_db2():
    assert np.allclose(get_filter_bank("sym2").dec_lo, get_filter_bank("db2").dec_lo)


def test_reconstruction_filters_are_reversed_decomposition():
    bank = get_filter_bank("db3")
    assert np.allclose(bank.rec_lo, bank.dec_lo[::-1])
    assert np.allclose(bank.rec_hi, bank.dec_hi[::-1])


def test_unknown_wavelet_raises():
    with pytest.raises(WaveletError):
        get_filter_bank("db99")
    with pytest.raises(WaveletError):  # a failed lookup caches nothing
        get_filter_bank("db99")


@pytest.mark.parametrize("name", WAVELETS)
def test_one_read_only_bank_per_lowercased_name(name):
    bank = get_filter_bank(name)
    assert get_filter_bank(name.upper()) is bank
    assert bank.name == name
    for taps in (bank.dec_lo, bank.dec_hi, bank.rec_lo, bank.rec_hi):
        with pytest.raises(ValueError):
            taps[0] = 0.0


def test_the_paper_default_wavelet_is_supported():
    assert "sym2" in WAVELETS
