"""Discrete wavelet transform with periodic boundary handling.

This is the substrate that replaces PyWavelets in the original JWINS
implementation.  Only what JWINS needs is implemented: the one-dimensional
orthogonal DWT of a flat parameter vector, multi-level decomposition and the
exact inverse.  Every entry point works along the *last* axis and carries any
leading axes through, so one flat vector and a stacked ``(N, length)`` matrix
of them are the same call — and row ``r`` of a stacked result is bit-identical
to the call on row ``r`` alone (``tests/wavelets/test_batch.py``), which is
what lets a sharing scheme transform many nodes' rows in one pass.

The analysis operator uses circular (periodized) boundary extension.  For an
even-length signal and orthonormal filters the operator is orthogonal, hence
the synthesis step is simply its transpose and reconstruction is exact up to
floating-point error.  Odd-length inputs are zero-padded by one element at the
level where the odd length occurs; the padding is recorded so the inverse can
trim it again.

The hot path reads every filter tap from contiguous memory without changing
a single output bit.  A periodized level only ever pairs even taps with even
samples and odd taps with odd samples, so both directions work on the two
*phases* of the full-rate signal:

* analysis deinterleaves the signal once into contiguous ``even``/``odd``
  halves (cyclically extended by the filter's half-length, zero padding of an
  odd length folded in), shared by the low- and the high-pass filter; tap ``k``
  then multiplies the plain slice ``phase[k & 1][k >> 1 : (k >> 1) + half]``;
* synthesis accumulates the ``even`` and ``odd`` output phases from plain
  slices of a cyclically prefixed copy of each coefficient band and
  interleaves them once at the end.

The kernels broadcast over leading axes and accumulate taps in exactly the
original order: every row is bit-identical (signed zeros included) to
:func:`dwt_single_reference`/:func:`idwt_single_reference`, the original
scalar-loop implementations kept as the equivalence-test ground truth.  Those
loops also serve what the phase kernels do not cover — filters with an odd
number of taps and signals shorter than the filter's half-length — which no
shipped wavelet and no decomposition level :func:`max_decomposition_level`
admits ever reaches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.exceptions import WaveletError
from repro.wavelets.filters import WaveletFilterBank, get_filter_bank

__all__ = [
    "MultiLevelCoefficients",
    "dwt_single",
    "dwt_single_reference",
    "idwt_single",
    "idwt_single_reference",
    "max_decomposition_level",
    "wavedec",
    "waverec",
]


def _analysis_reference(signal: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Per-tap modulo-gather analysis (the original loop; ground truth)."""

    length = signal.size
    half = length // 2
    # Positions (2 * i + k) mod length for i in [0, half) and k in [0, taps).
    starts = 2 * np.arange(half)
    out = np.zeros(half, dtype=np.float64)
    for k, tap in enumerate(taps):
        out += tap * signal[(starts + k) % length]
    return out


def _synthesis_accumulate_reference(
    coefficients: np.ndarray, taps: np.ndarray, length: int, out: np.ndarray
) -> None:
    """Per-tap ``np.add.at`` synthesis (the original loop; ground truth)."""

    starts = 2 * np.arange(coefficients.size)
    for k, tap in enumerate(taps):
        np.add.at(out, (starts + k) % length, tap * coefficients)


def _phase_kernels_apply(bank: WaveletFilterBank, half: int) -> bool:
    """Whether the phase-split kernels cover ``bank`` at ``half`` outputs per band.

    They pair taps ``2m``/``2m + 1`` with the even/odd phase (an even tap
    count) and take the cyclic extension as one slice of the phase itself (at
    least ``taps / 2 - 1`` samples per phase).
    """

    return bank.length % 2 == 0 and bank.length // 2 - 1 <= half


def _analysis(values: np.ndarray, bank: WaveletFilterBank) -> tuple[np.ndarray, np.ndarray]:
    """One periodized analysis level over the last axis of ``values``.

    Returns ``(approximation, detail)``, each ``(..., ceil(n / 2))``; an odd
    length ``n`` is zero-padded by one sample.  Output ``i`` of a band is the
    sum over taps ``k`` ascending, from a zero start, of ``taps[k] *
    x[(2i + k) % length]`` — the operations of :func:`_analysis_reference` in
    the same order, so every leading-axis row is bit-identical to it.
    """

    lead, n = values.shape[:-1], values.shape[-1]
    half = (n + 1) // 2
    if not _phase_kernels_apply(bank, half):
        if n % 2:
            values = np.concatenate([values, np.zeros(lead + (1,))], axis=-1)
        rows = values.reshape(-1, 2 * half)
        approx, detail = (
            np.array([_analysis_reference(row, taps) for row in rows]).reshape(lead + (half,))
            for taps in (bank.dec_lo, bank.dec_hi)
        )
        return approx, detail

    # x[(2i + k) % length] is sample (i + (k >> 1)) % half of phase k & 1, so
    # extending each phase cyclically by taps / 2 - 1 samples turns tap k's
    # operand into a plain slice.
    extension = bank.length // 2 - 1
    phases = np.empty((2,) + lead + (half + extension,), dtype=np.float64)
    phases[0][..., :half] = values[..., 0::2]
    phases[1][..., : n // 2] = values[..., 1::2]
    if n % 2:
        phases[1][..., half - 1] = 0.0
    phases[..., half:] = phases[..., :extension]

    scratch = np.empty(lead + (half,), dtype=np.float64)
    bands = []
    for taps in (bank.dec_lo, bank.dec_hi):
        # Start from zeros and add tap by tap, mirroring the reference loop
        # operation for operation (this keeps even signed zeros bit-identical).
        out = np.zeros(lead + (half,), dtype=np.float64)
        for k in range(taps.size):
            start = k >> 1
            np.multiply(phases[k & 1][..., start : start + half], taps[k], out=scratch)
            out += scratch
        bands.append(out)
    return bands[0], bands[1]


def _synthesis(approx: np.ndarray, detail: np.ndarray, bank: WaveletFilterBank) -> np.ndarray:
    """Transpose of :func:`_analysis` over the last axis: ``(..., 2 * half)``.

    Output ``2p + parity`` receives, for ``(approx, dec_lo)`` then ``(detail,
    dec_hi)`` and ``m`` ascending, ``taps[2m + parity] * c[(p - m) % half]`` —
    the contributions :func:`_synthesis_accumulate_reference` scatters to that
    position, in its order, so every leading-axis row is bit-identical to it.
    """

    lead, half = approx.shape[:-1], approx.shape[-1]
    if not _phase_kernels_apply(bank, half):
        out = np.zeros((math.prod(lead), 2 * half), dtype=np.float64)
        for band, taps in ((approx, bank.dec_lo), (detail, bank.dec_hi)):
            for row, coefficients in zip(out, band.reshape(len(out), half)):
                _synthesis_accumulate_reference(coefficients, taps, 2 * half, row)
        return out.reshape(lead + (2 * half,))

    extension = bank.length // 2 - 1
    prefixed = np.empty(lead + (extension + half,), dtype=np.float64)
    scratch = np.empty(lead + (half,), dtype=np.float64)
    even = np.zeros(lead + (half,), dtype=np.float64)
    odd = np.zeros(lead + (half,), dtype=np.float64)
    for band, taps in ((approx, bank.dec_lo), (detail, bank.dec_hi)):
        # c[(p - m) % half] for p in [0, half) is the slice starting at
        # extension - m of the band prefixed with its own last samples.
        prefixed[..., extension:] = band
        prefixed[..., :extension] = band[..., half - extension :]
        for m in range(taps.size // 2):
            source = prefixed[..., extension - m : extension - m + half]
            np.multiply(source, taps[2 * m], out=scratch)
            even += scratch
            np.multiply(source, taps[2 * m + 1], out=scratch)
            odd += scratch
    out = np.empty(lead + (2 * half,), dtype=np.float64)
    out[..., 0::2] = even
    out[..., 1::2] = odd
    return out


def dwt_single(
    signal: np.ndarray, wavelet: str | WaveletFilterBank = "sym2"
) -> tuple[np.ndarray, np.ndarray, bool]:
    """One level of the periodized DWT along the last axis of ``signal``.

    Returns ``(approximation, detail, padded)`` where ``padded`` indicates the
    input was zero-padded by one element to reach an even length (one flag:
    stacked signals share their length).
    """

    bank = wavelet if isinstance(wavelet, WaveletFilterBank) else get_filter_bank(wavelet)
    values = np.asarray(signal, dtype=np.float64)
    if values.ndim == 0 or values.shape[-1] < 2:
        raise WaveletError("dwt_single requires a signal with at least 2 elements")
    approx, detail = _analysis(values, bank)
    return approx, detail, values.shape[-1] % 2 == 1


def idwt_single(
    approx: np.ndarray,
    detail: np.ndarray,
    wavelet: str | WaveletFilterBank = "sym2",
    padded: bool = False,
) -> np.ndarray:
    """Invert one level of the periodized DWT along the last axis."""

    bank = wavelet if isinstance(wavelet, WaveletFilterBank) else get_filter_bank(wavelet)
    approx = np.asarray(approx, dtype=np.float64)
    detail = np.asarray(detail, dtype=np.float64)
    if approx.ndim == 0 or approx.shape != detail.shape:
        raise WaveletError(
            f"approximation {approx.shape} and detail {detail.shape} shapes differ"
        )
    out = _synthesis(approx, detail, bank)
    return out[..., :-1] if padded else out


def dwt_single_reference(
    signal: np.ndarray, wavelet: str | WaveletFilterBank = "sym2"
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Scalar-loop version of :func:`dwt_single` (equivalence-test ground truth)."""

    bank = wavelet if isinstance(wavelet, WaveletFilterBank) else get_filter_bank(wavelet)
    values = np.asarray(signal, dtype=np.float64).ravel()
    if values.size < 2:
        raise WaveletError("dwt_single requires a signal with at least 2 elements")
    padded = values.size % 2 == 1
    if padded:
        values = np.concatenate([values, np.zeros(1)])
    approx = _analysis_reference(values, bank.dec_lo)
    detail = _analysis_reference(values, bank.dec_hi)
    return approx, detail, padded


def idwt_single_reference(
    approx: np.ndarray,
    detail: np.ndarray,
    wavelet: str | WaveletFilterBank = "sym2",
    padded: bool = False,
) -> np.ndarray:
    """Scalar-loop version of :func:`idwt_single` (equivalence-test ground truth)."""

    bank = wavelet if isinstance(wavelet, WaveletFilterBank) else get_filter_bank(wavelet)
    approx = np.asarray(approx, dtype=np.float64).ravel()
    detail = np.asarray(detail, dtype=np.float64).ravel()
    if approx.size != detail.size:
        raise WaveletError(
            f"approximation ({approx.size}) and detail ({detail.size}) lengths differ"
        )
    length = 2 * approx.size
    out = np.zeros(length, dtype=np.float64)
    _synthesis_accumulate_reference(approx, bank.dec_lo, length, out)
    _synthesis_accumulate_reference(detail, bank.dec_hi, length, out)
    if padded:
        out = out[:-1]
    return out


def max_decomposition_level(length: int, wavelet: str | WaveletFilterBank = "sym2") -> int:
    """Largest decomposition level for a signal of ``length`` elements.

    A level is allowed as long as the signal entering it has at least twice the
    filter length, which guarantees the circular analysis operator stays
    orthogonal.
    """

    bank = wavelet if isinstance(wavelet, WaveletFilterBank) else get_filter_bank(wavelet)
    level = 0
    current = int(length)
    while current >= 2 * bank.length:
        current = (current + 1) // 2
        level += 1
    return level


@dataclass(frozen=True)
class MultiLevelCoefficients:
    """Coefficients of a multi-level DWT.

    ``arrays`` stores, in order, the deepest approximation followed by the
    detail bands from deepest to shallowest (the PyWavelets ``wavedec``
    convention); every band carries the signal's leading axes and its
    coefficients along the last one.  ``pad_flags[j]`` records whether the
    input to level ``j`` (counting from the shallowest level, ``j == 0`` being
    the original signal) was zero-padded by one element.  ``original_length``
    and :attr:`total_size` count one signal, i.e. the last axis.
    """

    wavelet: str
    arrays: tuple[np.ndarray, ...]
    pad_flags: tuple[bool, ...]
    original_length: int

    @property
    def levels(self) -> int:
        return len(self.arrays) - 1

    @property
    def total_size(self) -> int:
        return int(sum(a.shape[-1] for a in self.arrays))


def wavedec(
    signal: np.ndarray,
    wavelet: str | WaveletFilterBank = "sym2",
    levels: int | None = 4,
) -> MultiLevelCoefficients:
    """Multi-level periodized wavelet decomposition along the last axis.

    Parameters
    ----------
    signal:
        Flat vector to decompose, or a stack of them along leading axes.
    wavelet:
        Wavelet name or a prebuilt :class:`WaveletFilterBank`.
    levels:
        Number of decomposition levels.  ``None`` uses the maximum level; a
        requested level larger than the maximum is clamped to the maximum (the
        paper observed no benefit beyond four levels, and very small vectors
        cannot support four).
    """

    bank = wavelet if isinstance(wavelet, WaveletFilterBank) else get_filter_bank(wavelet)
    values = np.asarray(signal, dtype=np.float64)
    if values.ndim == 0 or values.shape[-1] == 0:
        raise WaveletError("cannot decompose an empty signal")
    limit = max_decomposition_level(values.shape[-1], bank)
    if levels is None:
        levels = limit
    if levels < 0:
        raise WaveletError("levels must be non-negative")
    levels = min(int(levels), limit)

    details: list[np.ndarray] = []
    pad_flags: list[bool] = []
    current = values
    for _ in range(levels):
        approx, detail, padded = dwt_single(current, bank)
        details.append(detail)
        pad_flags.append(padded)
        current = approx
    arrays = tuple([current] + list(reversed(details)))
    return MultiLevelCoefficients(
        wavelet=bank.name,
        arrays=arrays,
        pad_flags=tuple(pad_flags),
        original_length=values.shape[-1],
    )


def waverec(coefficients: MultiLevelCoefficients) -> np.ndarray:
    """Invert :func:`wavedec`, returning the reconstructed signal (or stack)."""

    bank = get_filter_bank(coefficients.wavelet)
    arrays = coefficients.arrays
    current = np.asarray(arrays[0], dtype=np.float64)
    if len(arrays) == 1:
        return current.copy()
    # Details are stored deepest-first; pad flags are stored shallowest-first.
    for detail, padded in zip(arrays[1:], reversed(coefficients.pad_flags)):
        current = idwt_single(current, detail, bank, padded=padded)
    if current.shape[-1] != coefficients.original_length:
        raise WaveletError(
            "reconstructed length does not match the original signal length: "
            f"{current.shape[-1]} != {coefficients.original_length}"
        )
    return current
