"""Wavelet substrate: filter banks, DWT/IDWT and coefficient-domain transforms."""

from repro.wavelets.dwt import (
    MultiLevelCoefficients,
    dwt_single,
    idwt_single,
    max_decomposition_level,
    wavedec,
    waverec,
)
from repro.wavelets.filters import WaveletFilterBank, get_filter_bank
from repro.wavelets.fourier import FourierLayout, fft_forward, fft_inverse
from repro.wavelets.packing import CoefficientLayout, pack_coefficients, unpack_coefficients
from repro.wavelets.transform import (
    FourierTransform,
    IdentityTransform,
    ModelTransform,
    WaveletTransform,
    make_transform,
    pad_images,
)

__all__ = [
    "MultiLevelCoefficients",
    "dwt_single",
    "idwt_single",
    "max_decomposition_level",
    "wavedec",
    "waverec",
    "WaveletFilterBank",
    "get_filter_bank",
    "FourierLayout",
    "fft_forward",
    "fft_inverse",
    "CoefficientLayout",
    "pack_coefficients",
    "unpack_coefficients",
    "FourierTransform",
    "IdentityTransform",
    "ModelTransform",
    "WaveletTransform",
    "make_transform",
    "pad_images",
]
