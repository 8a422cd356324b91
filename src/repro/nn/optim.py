"""Optimizers.

The paper trains every task with plain SGD without momentum; momentum and
weight decay are implemented anyway because JWINS explicitly supports stateless
and stateful optimizers alike.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ModelError
from repro.nn.module import Parameter

__all__ = ["SGD"]


class SGD:
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        if lr <= 0:
            raise ModelError("learning rate must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ModelError("momentum must be in [0, 1)")
        if weight_decay < 0:
            raise ModelError("weight decay must be non-negative")
        self.parameters = list(parameters)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        # calloc'd: with ``momentum == 0`` the buffers are never written, so
        # their pages are never touched.
        self._velocity = [np.zeros(p.value.shape) for p in self.parameters]

    def zero_grad(self) -> None:
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:
        """Apply one update using the currently accumulated gradients."""

        for parameter, velocity in zip(self.parameters, self._velocity):
            gradient = parameter.grad
            if self.weight_decay:
                gradient = gradient + self.weight_decay * parameter.value
            if self.momentum:
                velocity *= self.momentum
                velocity += gradient
                update = velocity
            else:
                update = gradient
            parameter.value -= self.lr * update

    # -- checkpointing ------------------------------------------------------------
    def state_dict(self) -> dict:
        """The optimizer's mutable state (momentum buffers), for checkpointing."""

        return {"velocity": [buffer.copy() for buffer in self._velocity]}

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""

        velocity = [np.asarray(buffer, dtype=np.float64) for buffer in state["velocity"]]
        if len(velocity) != len(self.parameters):
            raise ModelError(
                f"checkpointed optimizer holds {len(velocity)} momentum buffers, "
                f"this optimizer tracks {len(self.parameters)} parameters"
            )
        for buffer, parameter in zip(velocity, self.parameters):
            if buffer.shape != parameter.value.shape:
                raise ModelError(
                    f"momentum buffer shape {buffer.shape} does not match "
                    f"parameter shape {parameter.value.shape}"
                )
        self._velocity = [buffer.copy() for buffer in velocity]
