"""Dataset abstractions shared by every learning task.

A :class:`Dataset` is an in-memory pair of input and target arrays.  A
:class:`LearningTask` bundles a train/test dataset with the model factory,
loss and accuracy metric for that task; the decentralized simulator only ever
interacts with tasks through this interface, which is what makes it possible
to swap in the five paper workloads (or new ones) without touching the
simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro.exceptions import DatasetError
from repro.nn.losses import Loss
from repro.nn.module import Module

__all__ = ["Dataset", "LearningTask", "iterate_minibatches"]


class Dataset:
    """An in-memory supervised dataset.

    Parameters
    ----------
    inputs:
        Array of model inputs, first axis indexes samples.
    targets:
        Array of targets, first axis indexes samples.
    client_ids:
        Optional per-sample client identifier, used by the client-based
        non-IID partitioner (LEAF-style datasets group samples by the user
        who produced them).
    """

    def __init__(
        self,
        inputs: np.ndarray,
        targets: np.ndarray,
        client_ids: np.ndarray | None = None,
    ) -> None:
        inputs = np.asarray(inputs)
        targets = np.asarray(targets)
        if inputs.shape[0] != targets.shape[0]:
            raise DatasetError(
                f"inputs ({inputs.shape[0]}) and targets ({targets.shape[0]}) disagree on sample count"
            )
        if client_ids is not None:
            client_ids = np.asarray(client_ids)
            if client_ids.shape[0] != inputs.shape[0]:
                raise DatasetError("client_ids must have one entry per sample")
        self.inputs = inputs
        self.targets = targets
        self.client_ids = client_ids

    def __len__(self) -> int:
        return int(self.inputs.shape[0])

    def subset(self, indices: np.ndarray) -> "Dataset":
        """Return a new dataset restricted to ``indices``."""

        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= len(self)):
            raise DatasetError("subset indices out of range")
        clients = self.client_ids[indices] if self.client_ids is not None else None
        return Dataset(self.inputs[indices], self.targets[indices], clients)

    def batch(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return the (inputs, targets) mini-batch at ``indices``."""

        indices = np.asarray(indices, dtype=np.int64)
        return self.inputs[indices], self.targets[indices]


def iterate_minibatches(
    dataset: Dataset,
    batch_size: int,
    rng: np.random.Generator | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield mini-batches covering ``dataset`` once (shuffled when ``rng`` given)."""

    if batch_size <= 0:
        raise DatasetError("batch_size must be positive")
    order = np.arange(len(dataset))
    if rng is not None:
        rng.shuffle(order)
    for start in range(0, len(dataset), batch_size):
        yield dataset.batch(order[start : start + batch_size])


def classification_accuracy(outputs: np.ndarray, targets: np.ndarray) -> float:
    """Top-1 accuracy for classification outputs (logits per class)."""

    predictions = np.asarray(outputs).argmax(axis=-1)
    return float(np.mean(predictions == np.asarray(targets)))


def rating_accuracy(outputs: np.ndarray, targets: np.ndarray, tolerance: float = 0.5) -> float:
    """Fraction of predicted ratings within ``tolerance`` of the true rating.

    The recommendation task is a regression problem; the paper reports it on
    the same accuracy axis as the classification tasks, so we use the standard
    "hit within half a star" notion of accuracy.
    """

    outputs = np.asarray(outputs, dtype=np.float64).reshape(-1)
    targets = np.asarray(targets, dtype=np.float64).reshape(-1)
    return float(np.mean(np.abs(outputs - targets) <= tolerance))


@dataclass
class LearningTask:
    """A complete learning task: data, model factory, loss and metric."""

    name: str
    train: Dataset
    test: Dataset
    model_factory: Callable[[np.random.Generator], Module]
    loss_factory: Callable[[], Loss]
    accuracy_fn: Callable[[np.ndarray, np.ndarray], float] = field(
        default=classification_accuracy
    )

    def make_model(self, rng: np.random.Generator) -> Module:
        """Instantiate a fresh model for this task."""

        return self.model_factory(rng)

    def make_loss(self) -> Loss:
        """Instantiate the task loss."""

        return self.loss_factory()

    @property
    def model_size(self) -> int:
        """Number of parameters of the task model (probed with a fixed seed)."""

        probe = self.make_model(np.random.default_rng(0))
        return probe.num_parameters
