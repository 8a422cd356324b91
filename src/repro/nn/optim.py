"""Optimizers.

The paper trains every task with plain SGD, without momentum or weight decay,
so :class:`SGD` holds no state beyond its parameters and learning rate, and a
checkpoint holds no optimizer entry.
"""

from __future__ import annotations

from typing import Sequence

from repro.exceptions import ModelError
from repro.nn.module import Parameter

__all__ = ["SGD"]


class SGD:
    """Plain stochastic gradient descent: ``p -= lr * grad``."""

    def __init__(self, parameters: Sequence[Parameter], lr: float) -> None:
        if lr <= 0:
            raise ModelError("learning rate must be positive")
        self.parameters = list(parameters)
        self.lr = float(lr)

    def zero_grad(self) -> None:
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:
        """Apply one update using the currently accumulated gradients."""

        for parameter in self.parameters:
            parameter.value -= self.lr * parameter.grad
