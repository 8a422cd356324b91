"""Sparsifier interface.

A sparsifier turns a dense score/value vector into a set of selected indices.
JWINS uses :class:`~repro.sparsification.topk.TopKSparsifier` over accumulated
wavelet importance scores; the random-sampling baseline uses
:class:`~repro.sparsification.random_sampling.RandomSamplingSparsifier`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["Sparsifier", "fraction_to_count"]


def fraction_to_count(fraction: float, size: int) -> int:
    """Convert a sharing fraction (e.g. 0.25) into a coefficient count.

    At least one element is always selected so a message is never empty.
    """

    if not 0.0 < fraction <= 1.0:
        raise ConfigurationError(f"sharing fraction must be in (0, 1], got {fraction}")
    return max(1, int(round(fraction * size)))


class Sparsifier(ABC):
    """Selects which of ``size`` coefficients to share."""

    @abstractmethod
    def select(self, scores: np.ndarray, count: int) -> np.ndarray:
        """Return the (sorted) indices of the ``count`` selected coefficients."""
