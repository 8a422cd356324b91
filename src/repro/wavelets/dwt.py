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
original scalar-loop order: every row is bit-identical (signed zeros
included) to the per-row loops kept as oracles in ``tests/oracles/dwt.py``.
They are the only path, for every signal length: when a band has fewer
samples than the cyclic extension (a signal shorter than the filter), the
extension is filled one wrapped column at a time.  Filter banks have an even
tap count (:class:`~repro.wavelets.filters.WaveletFilterBank` refuses any
other), so taps always pair up with the two phases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import WaveletError
from repro.wavelets.filters import WaveletFilterBank, get_filter_bank

__all__ = [
    "MultiLevelCoefficients",
    "dwt_single",
    "idwt_single",
    "max_decomposition_level",
    "wavedec",
    "waverec",
]


def _analysis(values: np.ndarray, bank: WaveletFilterBank) -> tuple[np.ndarray, np.ndarray]:
    """One periodized analysis level over the last axis of ``values``.

    Returns ``(approximation, detail)``, each ``(..., ceil(n / 2))``; an odd
    length ``n`` is zero-padded by one sample.  Output ``i`` of a band is the
    sum over taps ``k`` ascending, from a zero start, of ``taps[k] *
    x[(2i + k) % length]`` — the per-row reference loop's operations in the
    same order, so every leading-axis row is bit-identical to it.
    """

    lead, n = values.shape[:-1], values.shape[-1]
    half = (n + 1) // 2
    # x[(2i + k) % length] is sample (i + (k >> 1)) % half of phase k & 1, so
    # extending each phase cyclically by taps / 2 - 1 samples turns tap k's
    # operand into a plain slice.  The extension can be longer than the phase,
    # so it wraps column by column.
    extension = bank.length // 2 - 1
    phases = np.empty((2,) + lead + (half + extension,), dtype=np.float64)
    phases[0][..., :half] = values[..., 0::2]
    phases[1][..., : n // 2] = values[..., 1::2]
    if n % 2:
        phases[1][..., half - 1] = 0.0
    for j in range(extension):
        phases[..., half + j] = phases[..., j % half]

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
    the contributions the per-row reference loop scatters to that position, in
    its order, so every leading-axis row is bit-identical to it.
    """

    lead, half = approx.shape[:-1], approx.shape[-1]
    extension = bank.length // 2 - 1
    prefixed = np.empty(lead + (extension + half,), dtype=np.float64)
    scratch = np.empty(lead + (half,), dtype=np.float64)
    even = np.zeros(lead + (half,), dtype=np.float64)
    odd = np.zeros(lead + (half,), dtype=np.float64)
    for band, taps in ((approx, bank.dec_lo), (detail, bank.dec_hi)):
        # c[(p - m) % half] for p in [0, half) is the slice starting at
        # extension - m of the band prefixed with its own last samples, one
        # column at a time so that a prefix longer than the band wraps.
        prefixed[..., extension:] = band
        for j in range(extension):
            prefixed[..., j] = band[..., (j - extension) % half]
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
    if approx.shape[-1] == 0:
        raise WaveletError("idwt_single requires non-empty bands")
    out = _synthesis(approx, detail, bank)
    return out[..., :-1] if padded else out


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
    counts one signal, i.e. the last axis.
    """

    wavelet: str
    arrays: tuple[np.ndarray, ...]
    pad_flags: tuple[bool, ...]
    original_length: int


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
