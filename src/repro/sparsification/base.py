"""Sharing budgets: how many of ``size`` coefficients a fraction selects.

JWINS selects with :func:`~repro.sparsification.topk.topk_indices` over
accumulated wavelet importance scores; the random-sampling baseline draws
:func:`~repro.compression.indices.random_indices_from_seed`.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError

__all__ = ["fraction_to_count"]


def fraction_to_count(fraction: float, size: int) -> int:
    """Convert a sharing fraction (e.g. 0.25) into a coefficient count.

    At least one element is always selected so a message is never empty.
    """

    if not 0.0 < fraction <= 1.0:
        raise ConfigurationError(f"sharing fraction must be in (0, 1], got {fraction}")
    return max(1, int(round(fraction * size)))
