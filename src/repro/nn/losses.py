"""Loss functions.

Each loss exposes ``forward(predictions, targets) -> float`` and
``backward() -> np.ndarray`` returning the gradient with respect to the
predictions, so the training loop is identical for every task:

>>> logits = model(inputs)                      # doctest: +SKIP
>>> loss_value = loss.forward(logits, targets)  # doctest: +SKIP
>>> model.backward(loss.backward())             # doctest: +SKIP
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ModelError

__all__ = ["CrossEntropyLoss", "Loss", "MSELoss", "log_softmax", "softmax"]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with the usual max-shift for numerical stability."""

    shifted = logits - logits.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax."""

    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


class Loss:
    """Base class: stores the forward cache needed by :meth:`backward`."""

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        raise NotImplementedError

    def backward(self) -> np.ndarray:
        raise NotImplementedError


class CrossEntropyLoss(Loss):
    """Softmax cross-entropy over integer class targets (mean over the batch).

    Logits ``(members, batch, classes)`` with targets ``(members, batch)`` are
    that many independent losses: ``forward`` returns the array of the
    members' batch means, ``backward`` their stacked gradients, row ``r``
    bit-identical to the 2-D call on member ``r`` alone.
    """

    def __init__(self) -> None:
        self._cache: tuple[np.ndarray, tuple[np.ndarray, ...]] | None = None

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float | np.ndarray:
        logits = np.asarray(predictions, dtype=np.float64)
        labels = np.asarray(targets)
        if logits.ndim not in (2, 3):
            raise ModelError("CrossEntropyLoss expects (batch, classes) logits")
        if not np.issubdtype(labels.dtype, np.integer):
            raise ModelError("CrossEntropyLoss expects integer class targets")
        if labels.shape != logits.shape[:-1]:
            raise ModelError("logits and targets have mismatched batch sizes")
        if labels.size and (labels.min() < 0 or labels.max() >= logits.shape[-1]):
            raise ModelError("target class out of range")
        # The target logit of every row: (arange(batch), labels), behind a
        # member index when there is a member axis.
        targets_at = (np.arange(labels.shape[-1]), labels)
        if labels.ndim == 2:
            targets_at = (np.arange(labels.shape[0])[:, None], *targets_at)
        losses = -log_softmax(logits)[targets_at].mean(axis=-1)
        self._cache = (logits, targets_at)
        return float(losses) if logits.ndim == 2 else losses

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise ModelError("backward called before forward")
        logits, targets_at = self._cache
        grad = softmax(logits)
        grad[targets_at] -= 1.0
        return grad / logits.shape[-2]


class MSELoss(Loss):
    """Mean squared error over real-valued targets (mean over all elements)."""

    def __init__(self) -> None:
        self._cache: tuple[np.ndarray, np.ndarray] | None = None

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        outputs = np.asarray(predictions, dtype=np.float64)
        values = np.asarray(targets, dtype=np.float64)
        if outputs.shape != values.shape:
            values = values.reshape(outputs.shape)
        self._cache = (outputs, values)
        return float(np.mean((outputs - values) ** 2))

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise ModelError("backward called before forward")
        outputs, values = self._cache
        return 2.0 * (outputs - values) / outputs.size
