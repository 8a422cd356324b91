"""Element-wise activation layers."""

from __future__ import annotations

import numpy as np

from repro.exceptions import ModelError
from repro.nn.module import Module

__all__ = ["ReLU", "sigmoid"]


def sigmoid(values: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid."""

    out = np.empty_like(values, dtype=np.float64)
    positive = values >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-values[positive]))
    exp_vals = np.exp(values[~positive])
    out[~positive] = exp_vals / (1.0 + exp_vals)
    return out


class ReLU(Module):
    """Rectified linear activation."""

    def __init__(self) -> None:
        super().__init__()
        self._cache_mask: np.ndarray | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        self._cache_mask = (inputs > 0) if self.training else None
        # Bit-for-bit ``np.where(inputs > 0, inputs, 0.0)`` in two SIMD passes:
        # ``fmax`` (unlike ``maximum``) maps NaN to 0.0, and ``abs`` clears the
        # sign of the -0.0 that ``fmax(-0.0, 0.0)`` is free to return.
        output = np.fmax(inputs, 0.0)
        return np.abs(output, out=output)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache_mask is None:
            raise ModelError("backward called before forward")
        return np.asarray(grad_output, dtype=np.float64) * self._cache_mask
