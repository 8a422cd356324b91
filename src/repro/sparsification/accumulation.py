"""Residual accumulation of model changes.

Plain TopK keeps re-sharing the same coordinates and starves the rest of the
model.  The classical fix (Seide et al., Aji & Heafield) accumulates the
un-shared residual so that slowly-changing coordinates eventually cross the
selection threshold.  JWINS performs this accumulation in the wavelet domain
(Equations 3 and 4 of the paper); this module provides the domain-agnostic
accumulator both JWINS and the gradient-sparsification baselines reuse.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["ResidualAccumulator"]


class ResidualAccumulator:
    """Accumulates per-coordinate importance scores across rounds."""

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ConfigurationError("accumulator size must be positive")
        self._scores = np.zeros(int(size), dtype=np.float64)

    @property
    def size(self) -> int:
        return int(self._scores.size)

    @property
    def scores(self) -> np.ndarray:
        """Current accumulated scores (a read-only view)."""

        view = self._scores.view()
        view.flags.writeable = False
        return view

    def add(self, delta: np.ndarray) -> np.ndarray:
        """Add ``delta`` (e.g. this round's coefficient change) to the scores."""

        delta = np.asarray(delta, dtype=np.float64).ravel()
        if delta.size != self._scores.size:
            raise ConfigurationError(
                f"delta has {delta.size} elements, accumulator holds {self._scores.size}"
            )
        self._scores += delta
        return self.scores

    def reset_indices(self, indices: np.ndarray) -> None:
        """Zero the scores of coordinates that were just shared (Equation 3)."""

        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self._scores.size):
            raise ConfigurationError("reset indices out of range")
        self._scores[indices] = 0.0

    # -- checkpointing --------------------------------------------------------------
    def state_dict(self) -> dict:
        """The accumulated scores, for checkpointing.

        The array is the live one: encoding a snapshot copies it.
        """

        return {"scores": self._scores}

    def load_state_dict(self, state: dict) -> None:
        """Restore scores captured by :meth:`state_dict`."""

        scores = np.asarray(state["scores"], dtype=np.float64).ravel()
        if scores.size != self._scores.size:
            raise ConfigurationError(
                f"checkpointed accumulator holds {scores.size} scores, "
                f"this accumulator holds {self._scores.size}"
            )
        self._scores = scores.copy()
