"""TopK sparsification by absolute magnitude."""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["topk_indices"]


def topk_indices(scores: np.ndarray, count: int) -> np.ndarray:
    """Indices of the ``count`` largest |scores|, returned sorted ascending.

    Selection runs along the last axis: an ``(n, c)`` score matrix yields an
    ``(n, count)`` index matrix whose every row equals the 1-D call on that
    row (ties included — numpy selects each row with the same introselect).
    """

    scores = np.asarray(scores)
    if count <= 0:
        raise ConfigurationError("count must be positive")
    width = scores.shape[-1]
    if count >= width:
        return np.broadcast_to(np.arange(width, dtype=np.int64), scores.shape).copy()
    magnitudes = np.abs(scores)
    # argpartition is O(n); exact ordering inside the top-k set is irrelevant.
    selected = np.argpartition(magnitudes, width - count)[..., width - count :]
    return np.sort(selected).astype(np.int64, copy=False)
