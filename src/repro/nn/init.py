"""Weight-initialization schemes.

All initializers take an explicit :class:`numpy.random.Generator` so that the
same experiment seed always produces the same starting model on every node
(decentralized training in the paper starts all nodes from a common model).
"""

from __future__ import annotations

import numpy as np

__all__ = ["kaiming_uniform", "normal_init", "uniform_init"]


def kaiming_uniform(
    rng: np.random.Generator, shape: tuple[int, ...], fan_in: int
) -> np.ndarray:
    """He/Kaiming uniform initialization (suited to ReLU networks)."""

    limit = float(np.sqrt(6.0 / max(fan_in, 1)))
    return rng.uniform(-limit, limit, size=shape)


def uniform_init(
    rng: np.random.Generator, shape: tuple[int, ...], limit: float
) -> np.ndarray:
    """Symmetric uniform initialization in ``[-limit, limit]``."""

    return rng.uniform(-limit, limit, size=shape)


def normal_init(
    rng: np.random.Generator, shape: tuple[int, ...], std: float
) -> np.ndarray:
    """Zero-mean Gaussian initialization with the given standard deviation."""

    return rng.normal(0.0, std, size=shape)
