"""Packing multi-level wavelet coefficients into a single flat vector.

JWINS ranks, sparsifies, transmits and averages wavelet coefficients as one
flat vector (the same way it treats the model parameters themselves).  The
:class:`CoefficientLayout` records how that flat vector maps back onto the
per-level coefficient bands so the inverse transform can be applied after
averaging.  Like the DWT itself, packing works along the last axis: a stack of
signals packs to a stack of flat vectors with one shared layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import WaveletError
from repro.wavelets.dwt import MultiLevelCoefficients

__all__ = ["CoefficientLayout", "coefficient_layout", "pack_coefficients", "unpack_coefficients"]


@dataclass(frozen=True)
class CoefficientLayout:
    """Shape metadata needed to unpack a flat coefficient vector."""

    wavelet: str
    band_sizes: tuple[int, ...]
    pad_flags: tuple[bool, ...]
    original_length: int

    @property
    def total_size(self) -> int:
        return int(sum(self.band_sizes))

    @property
    def levels(self) -> int:
        return len(self.band_sizes) - 1

    def band_slices(self) -> list[slice]:
        """Return the slice of the flat vector occupied by each band."""

        slices: list[slice] = []
        offset = 0
        for size in self.band_sizes:
            slices.append(slice(offset, offset + size))
            offset += size
        return slices


def coefficient_layout(length: int, wavelet: str, levels: int) -> CoefficientLayout:
    """The layout ``wavedec`` of any ``length``-sample signal packs to.

    Band sizes depend on the length alone: each level zero-pads an odd input
    by one sample and halves it.  ``levels`` is taken as given (callers clamp
    it with :func:`~repro.wavelets.dwt.max_decomposition_level`).
    """

    if levels < 0:
        raise WaveletError("levels must be non-negative")
    current = int(length)
    details: list[int] = []
    pad_flags: list[bool] = []
    for _ in range(levels):
        pad_flags.append(current % 2 == 1)
        current = (current + 1) // 2
        details.append(current)
    return CoefficientLayout(
        wavelet=wavelet.lower(),
        band_sizes=(current, *reversed(details)),
        pad_flags=tuple(pad_flags),
        original_length=int(length),
    )


def pack_coefficients(
    coefficients: MultiLevelCoefficients,
) -> tuple[np.ndarray, CoefficientLayout]:
    """Join the bands of ``coefficients`` along the last axis: ``(vector, layout)``."""

    arrays = [np.asarray(a, dtype=np.float64) for a in coefficients.arrays]
    vector = np.concatenate(arrays, axis=-1)
    layout = CoefficientLayout(
        wavelet=coefficients.wavelet,
        band_sizes=tuple(int(a.shape[-1]) for a in arrays),
        pad_flags=coefficients.pad_flags,
        original_length=coefficients.original_length,
    )
    return vector, layout


def unpack_coefficients(
    vector: np.ndarray, layout: CoefficientLayout
) -> MultiLevelCoefficients:
    """Rebuild :class:`MultiLevelCoefficients` from a flat vector and its layout.

    The bands are views of ``vector`` (of every stacked row, when it has
    leading axes); :func:`~repro.wavelets.dwt.waverec` only reads them.
    """

    values = np.asarray(vector, dtype=np.float64)
    if values.ndim == 0 or values.shape[-1] != layout.total_size:
        raise WaveletError(
            f"coefficient vector has shape {values.shape}, layout expects "
            f"{layout.total_size} elements along the last axis"
        )
    return MultiLevelCoefficients(
        wavelet=layout.wavelet,
        arrays=tuple(values[..., band] for band in layout.band_slices()),
        pad_flags=layout.pad_flags,
        original_length=layout.original_length,
    )
