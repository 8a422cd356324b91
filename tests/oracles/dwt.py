"""Per-row scalar-loop references for ``dwt_single``/``idwt_single``."""

import numpy as np

from repro.exceptions import WaveletError
from repro.wavelets.filters import _ALIASES, _DEC_LO, WaveletFilterBank, get_filter_bank

#: Every wavelet name ``get_filter_bank`` accepts, aliases included.
WAVELETS = sorted(set(_DEC_LO) | set(_ALIASES))


def _analysis_reference(signal: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Per-tap modulo-gather analysis (the original loop)."""

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
    """Per-tap ``np.add.at`` synthesis (the original loop)."""

    starts = 2 * np.arange(coefficients.size)
    for k, tap in enumerate(taps):
        np.add.at(out, (starts + k) % length, tap * coefficients)


def dwt_single_reference(
    signal: np.ndarray, wavelet: str | WaveletFilterBank = "sym2"
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Scalar-loop version of ``dwt_single`` for one flat signal."""

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
    """Scalar-loop version of ``idwt_single`` for one pair of flat bands."""

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
