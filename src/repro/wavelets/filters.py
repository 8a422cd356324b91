"""Orthogonal wavelet filter banks.

The paper uses a four-level discrete wavelet decomposition with Symlet-2
(Sym2) wavelets (PyWavelets' ``sym2``).  This module provides the standard
orthonormal filter coefficients for the Haar, Daubechies and Symlet families
and derives the quadrature-mirror high-pass and reconstruction filters from
the decomposition low-pass filter.

Note that, as in PyWavelets, ``sym2``/``sym3`` coincide with ``db2``/``db3``:
the "least asymmetric" construction only differs from plain Daubechies
wavelets for order >= 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from repro.exceptions import WaveletError

__all__ = ["WaveletFilterBank", "get_filter_bank"]

_SQRT2 = float(np.sqrt(2.0))

# Decomposition low-pass filters (orthonormal, PyWavelets coefficient order).
_DEC_LO: dict[str, tuple[float, ...]] = {
    "haar": (1.0 / _SQRT2, 1.0 / _SQRT2),
    "db2": (
        -0.12940952255092145,
        0.22414386804185735,
        0.836516303737469,
        0.48296291314469025,
    ),
    "db3": (
        0.035226291882100656,
        -0.08544127388224149,
        -0.13501102001039084,
        0.4598775021193313,
        0.8068915093133388,
        0.3326705529509569,
    ),
    "db4": (
        -0.010597401784997278,
        0.032883011666982945,
        0.030841381835986965,
        -0.18703481171888114,
        -0.02798376941698385,
        0.6308807679295904,
        0.7148465705525415,
        0.23037781330885523,
    ),
    "sym4": (
        -0.07576571478927333,
        -0.02963552764599851,
        0.49761866763201545,
        0.8037387518059161,
        0.29785779560527736,
        -0.09921954357684722,
        -0.012603967262037833,
        0.0322231006040427,
    ),
}
# Symlets of order 2 and 3 are identical to the corresponding Daubechies wavelets.
_ALIASES = {"db1": "haar", "sym2": "db2", "sym3": "db3"}


@dataclass(frozen=True)
class WaveletFilterBank:
    """The four filters of an orthogonal wavelet.

    Attributes
    ----------
    name:
        Canonical wavelet name (aliases such as ``sym2`` are preserved as the
        requested name).
    dec_lo, dec_hi:
        Decomposition (analysis) low-pass and high-pass filters.
    rec_lo, rec_hi:
        Reconstruction (synthesis) filters; for orthogonal wavelets these are
        the time-reversed decomposition filters.
    """

    name: str
    dec_lo: np.ndarray = field(repr=False)
    dec_hi: np.ndarray = field(repr=False)
    rec_lo: np.ndarray = field(repr=False)
    rec_hi: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        # The DWT kernels pair taps 2m/2m + 1 with the even/odd signal phase.
        sizes = [f.size for f in (self.dec_lo, self.dec_hi, self.rec_lo, self.rec_hi)]
        if sizes[0] % 2 or len(set(sizes)) != 1:
            raise WaveletError(
                f"wavelet {self.name!r} needs four filters of one even length, got {sizes}"
            )

    @property
    def length(self) -> int:
        """Filter length (number of taps)."""

        return int(self.dec_lo.size)


def _quadrature_mirror(dec_lo: np.ndarray) -> np.ndarray:
    """Derive the decomposition high-pass filter from the low-pass filter."""

    taps = dec_lo.size
    signs = np.array([(-1.0) ** k for k in range(taps)])
    return signs * dec_lo[::-1]


def get_filter_bank(name: str) -> WaveletFilterBank:
    """Return the :class:`WaveletFilterBank` for wavelet ``name``.

    Each lowercased name maps to one shared bank, built and checked on first
    use; its arrays are read-only.

    Raises
    ------
    WaveletError
        If the wavelet is not a supported name or alias.
    """

    key = name.lower()
    if _ALIASES.get(key, key) not in _DEC_LO:
        raise WaveletError(
            f"unknown wavelet {name!r}; available: {', '.join(sorted(set(_DEC_LO) | set(_ALIASES)))}"
        )
    return _filter_bank(key)


@cache
def _filter_bank(key: str) -> WaveletFilterBank:
    dec_lo = np.asarray(_DEC_LO[_ALIASES.get(key, key)], dtype=np.float64)
    dec_hi = _quadrature_mirror(dec_lo)
    filters = (dec_lo, dec_hi, dec_lo[::-1].copy(), dec_hi[::-1].copy())
    for taps in filters:
        taps.flags.writeable = False
    return WaveletFilterBank(key, *filters)
