"""High-level transforms between the parameter domain and a coefficient domain.

JWINS' parameter ranking, selection and averaging all operate on a flat
coefficient vector.  The :class:`ModelTransform` interface abstracts which
domain that vector lives in:

* :class:`WaveletTransform` — the JWINS default (four-level Sym2 DWT);
* :class:`FourierTransform` — used in the Figure 2 comparison;
* :class:`IdentityTransform` — no transform at all, which turns JWINS into a
  plain TopK-on-parameter-changes scheme (the "JWINS without wavelet"
  ablation of Figure 8).

All transforms are linear and map a length-``n`` parameter vector to a
coefficient vector whose length is reported by :meth:`ModelTransform.coefficient_size`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.exceptions import WaveletError
from repro.wavelets.dwt import (
    max_decomposition_level,
    wavedec,
    wavedec_batch,
    waverec,
    waverec_batch,
)
from repro.wavelets.fourier import FourierLayout, fft_forward, fft_inverse
from repro.wavelets.packing import (
    CoefficientLayout,
    coefficient_layout,
    pack_coefficients,
    unpack_coefficients,
)

__all__ = [
    "FourierTransform",
    "IdentityTransform",
    "ModelTransform",
    "WaveletTransform",
    "make_transform",
]


class ModelTransform(ABC):
    """Invertible linear map between parameter vectors and coefficient vectors."""

    def __init__(self, model_size: int) -> None:
        if model_size <= 0:
            raise WaveletError("model_size must be positive")
        self._model_size = int(model_size)

    @property
    def model_size(self) -> int:
        """Length of the parameter vectors this transform accepts."""

        return self._model_size

    @abstractmethod
    def coefficient_size(self) -> int:
        """Length of the coefficient vectors produced by :meth:`forward`."""

    @abstractmethod
    def forward(self, vector: np.ndarray) -> np.ndarray:
        """Map a parameter vector to its coefficient representation."""

    @abstractmethod
    def inverse(self, coefficients: np.ndarray) -> np.ndarray:
        """Map a coefficient vector back to the parameter domain."""

    def _check_input(self, vector: np.ndarray) -> np.ndarray:
        values = np.asarray(vector, dtype=np.float64).ravel()
        if values.size != self._model_size:
            raise WaveletError(
                f"expected a vector of length {self._model_size}, got {values.size}"
            )
        return values

    # -- batched (N, size) entry points -------------------------------------------
    def forward_batch(self, matrix: np.ndarray) -> np.ndarray:
        """Map a stacked ``(N, model_size)`` matrix to ``(N, coefficient_size)``.

        Row ``r`` of the result equals ``forward(matrix[r])`` bit for bit —
        that contract is what lets the arena engine batch DWT calls over all
        nodes and stay byte-identical to the per-node path.  The default
        implementation simply loops over rows; transforms with a true batched
        kernel (:class:`WaveletTransform`) override it.
        """

        matrix = self._check_batch(matrix, self._model_size)
        return np.stack([self.forward(row) for row in matrix])

    def inverse_batch(self, coefficients: np.ndarray) -> np.ndarray:
        """Map stacked ``(N, coefficient_size)`` rows back to ``(N, model_size)``.

        The inverse of :meth:`forward_batch`, with the same per-row
        bit-identity contract to :meth:`inverse`; the default loops over rows.
        """

        coefficients = self._check_batch(coefficients, self.coefficient_size())
        return np.stack([self.inverse(row) for row in coefficients])

    def _check_batch(self, matrix: np.ndarray, width: int) -> np.ndarray:
        values = np.asarray(matrix, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != width:
            raise WaveletError(
                f"expected an (N, {width}) matrix, got shape {values.shape}"
            )
        return values


class IdentityTransform(ModelTransform):
    """The trivial transform: coefficients are the parameters themselves."""

    def coefficient_size(self) -> int:
        return self._model_size

    def forward(self, vector: np.ndarray) -> np.ndarray:
        return self._check_input(vector).copy()

    def inverse(self, coefficients: np.ndarray) -> np.ndarray:
        return self._check_input(coefficients).copy()

    def forward_batch(self, matrix: np.ndarray) -> np.ndarray:
        """Copy the stacked rows through unchanged (trivially bit-identical)."""

        return self._check_batch(matrix, self._model_size).copy()

    def inverse_batch(self, coefficients: np.ndarray) -> np.ndarray:
        """Copy the stacked rows through unchanged (trivially bit-identical)."""

        return self._check_batch(coefficients, self._model_size).copy()


class WaveletTransform(ModelTransform):
    """Multi-level DWT of the flat parameter vector (JWINS default).

    Parameters
    ----------
    model_size:
        Number of model parameters.
    wavelet:
        Wavelet family name (default ``sym2`` as in the paper).
    levels:
        Number of decomposition levels (default 4 as in the paper); clamped to
        the maximum supported by ``model_size``.
    """

    def __init__(self, model_size: int, wavelet: str = "sym2", levels: int = 4) -> None:
        super().__init__(model_size)
        self.wavelet = wavelet
        self.levels = min(int(levels), max_decomposition_level(model_size, wavelet))
        self._layout = coefficient_layout(model_size, wavelet, self.levels)

    @property
    def layout(self) -> CoefficientLayout:
        """Band layout of the packed coefficient vector."""

        return self._layout

    def coefficient_size(self) -> int:
        return self._layout.total_size

    def forward(self, vector: np.ndarray) -> np.ndarray:
        values = self._check_input(vector)
        coefficients = wavedec(values, self.wavelet, self.levels)
        packed, _ = pack_coefficients(coefficients)
        return packed

    def inverse(self, coefficients: np.ndarray) -> np.ndarray:
        unpacked = unpack_coefficients(coefficients, self._layout)
        return waverec(unpacked)

    def forward_batch(self, matrix: np.ndarray) -> np.ndarray:
        """Batched DWT of stacked parameter rows (one kernel pass, all nodes).

        Decomposes the whole ``(N, model_size)`` matrix through
        :func:`~repro.wavelets.dwt.wavedec_batch` and packs the bands along
        axis 1 — row ``r`` is bit-identical to ``forward(matrix[r])`` because
        the batched analysis accumulates taps in the same elementwise order
        and the band concatenation mirrors the single-row packing.
        """

        matrix = self._check_batch(matrix, self._model_size)
        bands, pad_flags = wavedec_batch(matrix, self.wavelet, self.levels)
        if pad_flags != self._layout.pad_flags or tuple(
            band.shape[1] for band in bands
        ) != self._layout.band_sizes:
            raise WaveletError("batched decomposition disagrees with the precomputed layout")
        return np.concatenate(bands, axis=1)

    def inverse_batch(self, coefficients: np.ndarray) -> np.ndarray:
        """Batched inverse DWT of stacked coefficient rows (arena aggregate path).

        Unpacks along axis 1 using the precomputed layout and reconstructs
        every row in one :func:`~repro.wavelets.dwt.waverec_batch` pass, bit
        for bit equal to per-row :meth:`inverse` calls.
        """

        coefficients = self._check_batch(coefficients, self.coefficient_size())
        bands = [coefficients[:, band] for band in self._layout.band_slices()]
        return waverec_batch(
            bands, self._layout.pad_flags, self.wavelet, self._layout.original_length
        )


class FourierTransform(ModelTransform):
    """Real FFT of the flat parameter vector (Figure 2 baseline)."""

    def __init__(self, model_size: int) -> None:
        super().__init__(model_size)
        self._layout = FourierLayout(original_length=model_size)

    def coefficient_size(self) -> int:
        return self._model_size

    def forward(self, vector: np.ndarray) -> np.ndarray:
        packed, _ = fft_forward(self._check_input(vector))
        return packed

    def inverse(self, coefficients: np.ndarray) -> np.ndarray:
        values = np.asarray(coefficients, dtype=np.float64).ravel()
        return fft_inverse(values, self._layout)


def make_transform(
    name: str, model_size: int, wavelet: str = "sym2", levels: int = 4
) -> ModelTransform:
    """Factory for transforms by name (``"wavelet"``, ``"fft"`` or ``"identity"``)."""

    key = name.lower()
    if key == "wavelet":
        return WaveletTransform(model_size, wavelet=wavelet, levels=levels)
    if key in {"fft", "fourier"}:
        return FourierTransform(model_size)
    if key in {"identity", "none"}:
        return IdentityTransform(model_size)
    raise WaveletError(f"unknown transform {name!r}; expected 'wavelet', 'fft' or 'identity'")
