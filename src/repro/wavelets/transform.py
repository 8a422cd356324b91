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
Each has two entry shapes — one flat vector (``forward``/``inverse``) and a
stacked ``(N, n)`` matrix of them (``forward_batch``/``inverse_batch``) — with
row ``r`` of the stacked result bit-identical to the flat call on row ``r``.
For :class:`WaveletTransform` the two are shape checks around one
decomposition, since the DWT works along the last axis.

The two transforms JWINS uses also have ``project_batch``, ``forward(inverse(c))``
per row: the coefficients of the model a coefficient vector reconstructs.  It
copies for :class:`IdentityTransform`.  The padded DWT is not onto, so for
:class:`WaveletTransform` it is not the identity but an orthogonal projection
(:func:`pad_images`), computed without running either transform.
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod

import numpy as np

from repro.exceptions import WaveletError
from repro.wavelets.dwt import dwt_single, max_decomposition_level, wavedec, waverec
from repro.wavelets.filters import get_filter_bank
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
    "pad_images",
]


@functools.lru_cache(maxsize=None)
def pad_images(layout: CoefficientLayout) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The sparse columns ``v_j`` spanning what the padded DWT never reaches.

    A level whose input has odd length appends a zero sample.  Let that sample
    vary instead and every level is an orthogonal map, so the DWT with free pad
    samples is orthogonal too; ``v_j`` is its image of a unit pad sample at
    padded level ``j``: that level's analysis of the unit, its approximation
    carried through the deeper levels.  The DWT's range is everything
    orthogonal to the ``v_j``, and
    ``forward(inverse(c)) = c - sum_j v_j (v_j . c)``.
    One ``(indices, values)`` pair per padded level, shallowest first,
    each a few filter taps per level deep; none for an unpadded layout.
    Cached per layout (a frozen dataclass), so every node of a deployment
    shares one read-only copy.
    """

    bank = get_filter_bank(layout.wavelet)
    images = []
    length = layout.original_length
    for level, padded in enumerate(layout.pad_flags):
        if padded:
            unit = np.zeros(length + 1)
            unit[-1] = 1.0
            approx, detail, _ = dwt_single(unit, bank)
            deeper = wavedec(approx, bank, layout.levels - level - 1)
            # Bands are packed deepest first: the deeper levels', then this
            # level's detail; every shallower band is zero.
            head = np.concatenate(deeper.arrays + (detail,))
            if head.size != sum(layout.band_sizes[: layout.levels - level + 1]):
                raise WaveletError("pad image disagrees with the coefficient layout")
            indices = np.flatnonzero(head)
            values = head[indices]
            indices.setflags(write=False)
            values.setflags(write=False)
            images.append((indices, values))
        length = (length + 1) // 2
    return tuple(images)


@functools.lru_cache(maxsize=None)
def _clamped_layout(model_size: int, wavelet: str, levels: int) -> CoefficientLayout:
    """The layout of a ``levels``-deep DWT clamped to what ``model_size`` allows.

    Cached per argument triple like :func:`pad_images`: a deployment builds
    one transform per node, all of one model size.
    """

    levels = min(levels, max_decomposition_level(model_size, wavelet))
    return coefficient_layout(model_size, wavelet, levels)


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

    def coefficient_size(self) -> int:
        """Length of the coefficient vectors produced by :meth:`forward`.

        The model size, unless the transform pads (:class:`WaveletTransform`).
        """

        return self._model_size

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

    # -- stacked (N, size) entry points -------------------------------------------
    def _check_batch(self, matrix: np.ndarray, width: int) -> np.ndarray:
        values = np.asarray(matrix, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != width:
            raise WaveletError(
                f"expected an (N, {width}) matrix, got shape {values.shape}"
            )
        return values


class IdentityTransform(ModelTransform):
    """The trivial transform: coefficients are the parameters themselves."""

    def forward(self, vector: np.ndarray) -> np.ndarray:
        return self._check_input(vector).copy()

    def forward_batch(self, matrix: np.ndarray) -> np.ndarray:
        """Copy the stacked rows through unchanged (trivially bit-identical)."""

        return self._check_batch(matrix, self._model_size).copy()

    # The identity is its own inverse, in either shape, and onto: what JWINS
    # calls ``project_batch`` (``forward(inverse(c))``) is a copy too.
    inverse = forward
    inverse_batch = forward_batch
    project_batch = forward_batch


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
        self._layout = _clamped_layout(int(model_size), wavelet, int(levels))
        self.levels = self._layout.levels

    @property
    def layout(self) -> CoefficientLayout:
        """Band layout of the packed coefficient vector."""

        return self._layout

    def coefficient_size(self) -> int:
        return self._layout.total_size

    def _decompose(self, values: np.ndarray) -> np.ndarray:
        """DWT along the last axis, packed; leading axes pass through."""

        packed, layout = pack_coefficients(wavedec(values, self.wavelet, self.levels))
        if layout != self._layout:
            raise WaveletError("decomposition disagrees with the precomputed layout")
        return packed

    def _reconstruct(self, coefficients: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`_decompose`; the unpack checks the coefficient width."""

        return waverec(unpack_coefficients(coefficients, self._layout))

    def forward(self, vector: np.ndarray) -> np.ndarray:
        return self._decompose(self._check_input(vector))

    def inverse(self, coefficients: np.ndarray) -> np.ndarray:
        return self._reconstruct(np.asarray(coefficients, dtype=np.float64).ravel())

    def forward_batch(self, matrix: np.ndarray) -> np.ndarray:
        """Every row's :meth:`forward` in one kernel pass over the matrix."""

        return self._decompose(self._check_batch(matrix, self._model_size))

    def inverse_batch(self, coefficients: np.ndarray) -> np.ndarray:
        """Every row's :meth:`inverse` in one kernel pass over the matrix."""

        return self._reconstruct(self._check_batch(coefficients, self.coefficient_size()))

    def project_batch(self, coefficients: np.ndarray) -> np.ndarray:
        """``forward_batch(inverse_batch(c))`` as ``c - sum_j v_j (v_j . c)`` per row.

        Equal to the two transforms up to rounding (the filters are
        orthonormal to about 1e-12, not exactly), at a few dozen
        multiply-adds per row, over :func:`pad_images`.  Each dot product is a running sum along the
        row, never a BLAS product or a reduction whose order follows the
        gather's memory layout, so every row is bit-identical to the one-row
        call.
        """

        projected = self._check_batch(coefficients, self.coefficient_size()).copy()
        images = pad_images(self._layout)
        dots = [
            np.cumsum(projected[:, indices] * values, axis=1)[:, -1]
            for indices, values in images
        ]
        for (indices, values), dot in zip(images, dots):
            projected[:, indices] -= dot[:, None] * values
        return projected


class FourierTransform(ModelTransform):
    """Real FFT of the flat parameter vector (Figure 2 baseline)."""

    def __init__(self, model_size: int) -> None:
        super().__init__(model_size)
        self._layout = FourierLayout(original_length=model_size)

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
