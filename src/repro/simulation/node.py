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
from repro.nn.models import ConvClassifier
from repro.nn.module import Module, assign_flat_values, flat_values
from repro.nn.optim import SGD

__all__ = ["SimulationNode", "evaluate_nodes"]

#: Samples per loss chunk of :func:`evaluate_nodes`.
_EVAL_CHUNK = 256
#: Samples per shared conv1 column block of :func:`evaluate_nodes`.
_EVAL_BLOCK = 32


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
        self.optimizer = SGD(self.parameters, lr=learning_rate)
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
        self, inputs: np.ndarray, targets: np.ndarray, accuracy_fn
    ) -> tuple[float, float]:
        """Return ``(loss, accuracy)`` of this node's model on the given data.

        The one-node case of :func:`evaluate_nodes`.
        """

        return evaluate_nodes([self], inputs, targets, accuracy_fn)[0]

    # -- checkpointing ---------------------------------------------------------------
    def state_dict(self) -> dict:
        """The node's full mutable state: model, RNG and scheme.

        Plain SGD keeps no state of its own.  The dataset partition, loss and
        hyperparameters are *not* captured —
        they are pure functions of the experiment configuration and seed, so
        the checkpoint layer rebuilds the node first and then overlays this
        state on top.
        """

        return {
            "params": self.get_parameters(),
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
        self._rng.bit_generator.state = dict(state["rng"])
        self.last_train_loss = float(state["last_train_loss"])
        self.scheme.load_state_dict(state["scheme"])


def evaluate_nodes(
    nodes: list[SimulationNode], inputs: np.ndarray, targets: np.ndarray, accuracy_fn
) -> list[tuple[float, float]]:
    """``(loss, accuracy)`` of every node's model on the same data, in node order.

    Each node's numbers are bit-identical to evaluating it alone: the loss is
    accumulated per node over chunks of :data:`_EVAL_CHUNK` samples.  When
    every model is a :class:`~repro.nn.models.ConvClassifier`, a chunk runs in
    blocks of :data:`_EVAL_BLOCK` samples whose conv1 columns are unfolded once
    and read by every model (a conv GEMM split by output columns is exact);
    each model's head then reads the whole chunk's features, because a
    ``Linear`` split by batch rows is not exact.  Other models run ``forward``
    per node.
    """

    models = [node.model for node in nodes]
    # conv1 is the same 3x3, padding-1 layer in every ConvClassifier, and the
    # inputs fix its channel count: the columns are the same for all models.
    shared_columns = all(isinstance(model, ConvClassifier) for model in models)
    for node in nodes:
        node.set_training(False)
    try:
        count = inputs.shape[0]
        losses = [0.0] * len(nodes)
        outputs: list[list[np.ndarray]] = [[] for _ in nodes]
        for start in range(0, count, _EVAL_CHUNK):
            chunk_inputs = inputs[start : start + _EVAL_CHUNK]
            chunk_targets = targets[start : start + _EVAL_CHUNK]
            if shared_columns:
                logits = _shared_column_logits(models, chunk_inputs)
            else:
                logits = (model.forward(chunk_inputs) for model in models)
            for index, (node, chunk_outputs) in enumerate(zip(nodes, logits)):
                loss = node.loss.forward(chunk_outputs, chunk_targets)
                losses[index] += loss * chunk_inputs.shape[0]
                outputs[index].append(chunk_outputs)
    finally:
        # An eval-mode model has no backward cache: never hand one back.
        for node in nodes:
            node.set_training(True)
    return [
        (loss / count, float(accuracy_fn(np.concatenate(node_outputs, axis=0), targets)))
        for loss, node_outputs in zip(losses, outputs)
    ]


def _shared_column_logits(
    models: list[ConvClassifier], inputs: np.ndarray
) -> list[np.ndarray]:
    """Every model's logits on ``inputs``, conv1's columns unfolded once per block."""

    features = None
    for start in range(0, inputs.shape[0], _EVAL_BLOCK):
        block = slice(start, start + _EVAL_BLOCK)
        columns = models[0].conv1.columns(inputs[block])
        for index, model in enumerate(models):
            pooled = model.trunk(model.conv1.forward_columns(*columns))
            if features is None:
                features = np.empty((len(models), inputs.shape[0], *pooled.shape[1:]))
            features[index, block] = pooled
    return [model.head(model_features) for model, model_features in zip(models, features)]
