"""A simulated decentralized-learning node.

Each node owns a partition of the training data, a private model, an optimizer
and a sharing scheme.  The original system runs one OS process per node and
exchanges messages over ZeroMQ; the simulator keeps the nodes in-process but
preserves the strict state separation: nodes only interact through the
messages the scheduler carries between them.
"""

from __future__ import annotations

import numpy as np

from repro.core.interface import SharingScheme
from repro.datasets.base import Dataset
from repro.exceptions import SimulationError
from repro.nn.losses import Loss
from repro.nn.module import Module, assign_flat_values, flat_values
from repro.nn.optim import SGD

__all__ = ["SimulationNode"]


class SimulationNode:
    """One decentralized-learning participant."""

    def __init__(
        self,
        node_id: int,
        dataset: Dataset,
        model: Module,
        loss: Loss,
        scheme: SharingScheme,
        learning_rate: float,
        batch_size: int,
        local_steps: int,
        rng: np.random.Generator,
        momentum: float = 0.0,
    ) -> None:
        if len(dataset) == 0:
            raise SimulationError(f"node {node_id} received an empty data partition")
        if batch_size <= 0 or local_steps <= 0:
            raise SimulationError("batch_size and local_steps must be positive")
        self.node_id = int(node_id)
        self.dataset = dataset
        self.model = model
        self.loss = loss
        self.scheme = scheme
        self.batch_size = int(batch_size)
        self.local_steps = int(local_steps)
        # The module tree never changes after construction: walk it once here,
        # not on every flatten, ``zero_grad`` and mode toggle of every round.
        self.parameters = model.parameters()
        self._modules = list(model.modules())
        self.optimizer = SGD(self.parameters, lr=learning_rate, momentum=momentum)
        self._rng = rng
        self.last_train_loss = float("nan")

    # -- training ---------------------------------------------------------------
    def get_parameters(self) -> np.ndarray:
        """Current flat model parameters."""

        return flat_values(self.parameters)

    def set_parameters(self, vector: np.ndarray) -> None:
        """Overwrite the model with the given flat parameter vector."""

        assign_flat_values(self.parameters, vector)

    def set_training(self, training: bool) -> None:
        """Put every module of the model in train (``True``) or eval mode."""

        for module in self._modules:
            module.training = training

    def sample_batch(self) -> tuple[np.ndarray, np.ndarray]:
        """Draw one mini-batch (with replacement when the partition is small)."""

        size = len(self.dataset)
        replace = size < self.batch_size
        indices = self._rng.choice(size, size=min(self.batch_size, size), replace=replace)
        return self.dataset.batch(indices)

    def backpropagate(self, inputs: np.ndarray, targets: np.ndarray) -> float:
        """The loss on one mini-batch, its gradients added to ``Parameter.grad``.

        The caller zeroes the gradients before and applies the update after:
        per node in :meth:`local_training`, once for all arena rows in
        :func:`~repro.simulation.arena.train_batched`.
        """

        outputs = self.model.forward(inputs)
        loss = self.loss.forward(outputs, targets)
        self.model.backward(self.loss.backward())
        return loss

    def backpropagate_batch(self) -> float:
        """:meth:`backpropagate` on a freshly sampled mini-batch."""

        return self.backpropagate(*self.sample_batch())

    def local_training(self) -> tuple[np.ndarray, np.ndarray]:
        """Run ``local_steps`` SGD steps; return ``(params_start, params_trained)``."""

        params_start = self.get_parameters()
        self.set_training(True)
        losses = []
        for _ in range(self.local_steps):
            self.optimizer.zero_grad()
            losses.append(self.backpropagate_batch())
            self.optimizer.step()
        self.last_train_loss = float(np.mean(losses))
        return params_start, self.get_parameters()

    # -- evaluation ---------------------------------------------------------------
    def evaluate(
        self,
        inputs: np.ndarray,
        targets: np.ndarray,
        accuracy_fn,
        batch_size: int = 256,
    ) -> tuple[float, float]:
        """Return ``(loss, accuracy)`` of this node's model on the given data."""

        self.set_training(False)
        try:
            total_loss = 0.0
            outputs_all = []
            count = inputs.shape[0]
            for start in range(0, count, batch_size):
                batch_inputs = inputs[start : start + batch_size]
                batch_targets = targets[start : start + batch_size]
                outputs = self.model.forward(batch_inputs)
                total_loss += self.loss.forward(outputs, batch_targets) * batch_inputs.shape[0]
                outputs_all.append(outputs)
            outputs = np.concatenate(outputs_all, axis=0)
        finally:
            # An eval-mode model has no backward cache: never hand one back.
            self.set_training(True)
        return total_loss / count, float(accuracy_fn(outputs, targets))

    # -- checkpointing ---------------------------------------------------------------
    def state_dict(self) -> dict:
        """The node's full mutable state: model, optimizer, RNG and scheme.

        The dataset partition, loss and hyperparameters are *not* captured —
        they are pure functions of the experiment configuration and seed, so
        the checkpoint layer rebuilds the node first and then overlays this
        state on top.
        """

        return {
            "params": self.get_parameters(),
            "optimizer": self.optimizer.state_dict(),
            "rng": self._rng.bit_generator.state,
            "last_train_loss": float(self.last_train_loss),
            "scheme": self.scheme.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict` on a rebuilt node."""

        params = np.asarray(state["params"], dtype=np.float64)
        model_size = sum(parameter.size for parameter in self.parameters)
        if params.size != model_size:
            raise SimulationError(
                f"checkpointed model for node {self.node_id} holds {params.size} "
                f"parameters, this node's model holds {model_size}"
            )
        self.set_parameters(params)
        self.optimizer.load_state_dict(state["optimizer"])
        self._rng.bit_generator.state = dict(state["rng"])
        self.last_train_loss = float(state["last_train_loss"])
        self.scheme.load_state_dict(state["scheme"])
