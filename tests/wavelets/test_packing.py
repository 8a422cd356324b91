"""Tests for coefficient packing."""

import numpy as np
import pytest

from repro.exceptions import WaveletError
from repro.wavelets.dwt import max_decomposition_level, wavedec, waverec
from repro.wavelets.packing import coefficient_layout, pack_coefficients, unpack_coefficients


def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(0)
    signal = rng.normal(size=300)
    coefficients = wavedec(signal, "sym2", 4)
    vector, layout = pack_coefficients(coefficients)
    assert vector.size == layout.total_size
    restored = unpack_coefficients(vector, layout)
    assert np.allclose(waverec(restored), signal, atol=1e-9)


def test_band_slices_cover_vector_exactly():
    signal = np.random.default_rng(1).normal(size=128)
    _, layout = pack_coefficients(wavedec(signal, "db2", 3))
    slices = layout.band_slices()
    assert slices[0].start == 0
    assert slices[-1].stop == layout.total_size
    for previous, current in zip(slices, slices[1:]):
        assert previous.stop == current.start


def test_unpack_wrong_size_raises():
    signal = np.random.default_rng(2).normal(size=64)
    vector, layout = pack_coefficients(wavedec(signal, "haar", 2))
    with pytest.raises(WaveletError):
        unpack_coefficients(vector[:-1], layout)


def test_modifying_packed_vector_changes_reconstruction():
    signal = np.random.default_rng(3).normal(size=64)
    vector, layout = pack_coefficients(wavedec(signal, "sym2", 3))
    vector = vector.copy()
    vector[:] = 0.0
    reconstructed = waverec(unpack_coefficients(vector, layout))
    assert np.allclose(reconstructed, 0.0, atol=1e-12)


@pytest.mark.parametrize("wavelet", ["haar", "sym2", "db4"])
def test_arithmetic_layout_equals_the_decomposed_one(wavelet):
    # WaveletTransform sizes its bands without decomposing anything; the
    # arithmetic must agree with what wavedec really produces, at tiny sizes
    # (levels clamped down to 0) and at the benchmark workloads' model sizes.
    for length in [*range(1, 201), 2410, 18490, 273418]:
        for requested in (0, 1, 4, 7):
            levels = min(requested, max_decomposition_level(length, wavelet))
            _, decomposed = pack_coefficients(wavedec(np.zeros(length), wavelet, requested))
            assert coefficient_layout(length, wavelet, levels) == decomposed, (length, requested)


def test_arithmetic_layout_rejects_negative_levels():
    with pytest.raises(WaveletError):
        coefficient_layout(64, "sym2", -1)
