"""Flat-vector helpers.

JWINS treats a model as a single flat vector of parameters (the paper calls
this out explicitly: "JWINS considers models as flat vectors of parameters").
These helpers convert between a list of parameter arrays and that flat vector.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["flatten_arrays"]


def flatten_arrays(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate ``arrays`` into one contiguous 1-D float64 vector."""

    if not arrays:
        return np.zeros(0, dtype=np.float64)
    return np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays])
