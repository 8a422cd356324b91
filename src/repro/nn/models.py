"""Model zoo mirroring the learning tasks of the paper's evaluation.

The original experiments use a GN-LeNet CNN for CIFAR-10, LEAF's CNNs for
FEMNIST and CelebA, a stacked LSTM for Shakespeare and matrix factorization
for MovieLens.  The architectures here follow the same structure at a reduced
scale so that a 16–96 node decentralized simulation stays fast on a single
machine; JWINS only ever sees the flat parameter vector, so the scale does not
change which code paths are exercised.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ModelError
from repro.nn.activations import ReLU
from repro.nn.conv import Conv2d, MaxPool2d
from repro.nn.layers import Embedding, Flatten, Linear
from repro.nn.module import Module, Parameter
from repro.nn.rnn import LSTM

__all__ = [
    "CelebACNN",
    "CharLSTM",
    "ConvClassifier",
    "FEMNISTCNN",
    "GNLeNet",
    "MatrixFactorization",
    "MLPClassifier",
]


class ConvClassifier(Module):
    """Two conv/pool blocks followed by a fully connected classifier head.

    This is the shared skeleton of the GN-LeNet-style CNNs used for the image
    classification tasks (CIFAR-10, FEMNIST, CelebA).

    Follows the :class:`~repro.nn.module.Module` contract: a train-mode
    ``forward`` caches for exactly one ``backward``; an eval-mode ``forward``
    caches nothing and a ``backward`` after it raises.  ``backward`` accumulates
    every parameter gradient and returns ``None``: no caller uses the gradient
    of the images, so ``conv1`` runs only the parameter half of its backward.

    ``forward`` is ``head(trunk(conv1(x)))``.  Evaluation calls the parts
    itself, so that every evaluated model reads one unfolding of conv1's
    columns (:func:`repro.simulation.node.evaluate_nodes`).
    """

    def __init__(
        self,
        in_channels: int,
        image_size: int,
        num_classes: int,
        rng: np.random.Generator,
        channels: tuple[int, int] = (8, 16),
        hidden: int = 64,
    ) -> None:
        super().__init__()
        if image_size % 4 != 0:
            raise ModelError("image_size must be divisible by 4 (two 2x2 pooling stages)")
        self.image_size = int(image_size)
        self.in_channels = int(in_channels)
        self.num_classes = int(num_classes)
        self.conv1 = Conv2d(in_channels, channels[0], kernel_size=3, rng=rng, padding=1)
        self.act1 = ReLU()
        self.pool1 = MaxPool2d(2)
        self.conv2 = Conv2d(channels[0], channels[1], kernel_size=3, rng=rng, padding=1)
        self.act2 = ReLU()
        self.pool2 = MaxPool2d(2)
        self.flatten = Flatten()
        feature_size = channels[1] * (image_size // 4) ** 2
        self.fc1 = Linear(feature_size, hidden, rng)
        self.act3 = ReLU()
        self.fc2 = Linear(hidden, num_classes, rng)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        return self.head(self.trunk(self.conv1(inputs)))

    def trunk(self, hidden: np.ndarray) -> np.ndarray:
        """From ``conv1``'s output to the pooled features the head reads."""

        hidden = self.pool1(self.act1(hidden))
        return self.pool2(self.act2(self.conv2(hidden)))

    def head(self, features: np.ndarray) -> np.ndarray:
        """From the pooled features to the logits."""

        return self.fc2(self.act3(self.fc1(self.flatten(features))))

    def backward(self, grad_output: np.ndarray) -> None:
        grad = self.fc2.backward(grad_output)
        grad = self.fc1.backward(self.act3.backward(grad))
        grad = self.flatten.backward(grad)
        grad = self.conv2.backward(self.act2.backward(self.pool2.backward(grad)))
        self.conv1.backward_parameters(self.act1.backward(self.pool1.backward(grad)))


class GNLeNet(ConvClassifier):
    """GN-LeNet-style CNN for the CIFAR-10-like image classification task."""

    def __init__(
        self, rng: np.random.Generator, image_size: int = 16, num_classes: int = 10
    ) -> None:
        super().__init__(
            in_channels=3,
            image_size=image_size,
            num_classes=num_classes,
            rng=rng,
            channels=(8, 16),
            hidden=64,
        )


class FEMNISTCNN(ConvClassifier):
    """LEAF-style CNN for the FEMNIST-like handwritten character task."""

    def __init__(
        self, rng: np.random.Generator, image_size: int = 16, num_classes: int = 10
    ) -> None:
        super().__init__(
            in_channels=1,
            image_size=image_size,
            num_classes=num_classes,
            rng=rng,
            channels=(6, 12),
            hidden=48,
        )


class CelebACNN(ConvClassifier):
    """LEAF-style CNN for the CelebA-like binary attribute task."""

    def __init__(
        self, rng: np.random.Generator, image_size: int = 16, num_classes: int = 2
    ) -> None:
        super().__init__(
            in_channels=3,
            image_size=image_size,
            num_classes=num_classes,
            rng=rng,
            channels=(6, 12),
            hidden=32,
        )


class MLPClassifier(Module):
    """A small multi-layer perceptron (used by quick examples and tests).

    Follows the :class:`~repro.nn.module.Module` contract: a train-mode
    ``forward`` caches for exactly one ``backward``; an eval-mode ``forward``
    caches nothing and a ``backward`` after it raises.  ``backward`` accumulates
    every parameter gradient and returns ``None``: no caller uses the gradient
    of the inputs, so ``fc1`` runs only the parameter half of its backward.

    With a member axis on its parameters (see :class:`~repro.nn.layers.Linear`)
    it is that many MLPs of one shape in one call: inputs ``(members, batch,
    ...)``, logits ``(members, batch, classes)``, row ``r`` bit-identical to
    the MLP holding member ``r``'s parameters alone.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        num_classes: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.fc1 = Linear(input_size, hidden_size, rng)
        self.act = ReLU()
        self.fc2 = Linear(hidden_size, num_classes, rng)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        # Keep the batch axis, and the member axis in front of it if any.
        batch_axes = self.fc1.weight.value.ndim - 1
        flat = inputs.reshape(*inputs.shape[:batch_axes], -1)
        return self.fc2(self.act(self.fc1(flat)))

    def backward(self, grad_output: np.ndarray) -> None:
        self.fc1.backward_parameters(self.act.backward(self.fc2.backward(grad_output)))


class CharLSTM(Module):
    """Embedding + stacked LSTM + linear head for next-character prediction."""

    def __init__(
        self,
        vocab_size: int,
        rng: np.random.Generator,
        embedding_dim: int = 8,
        hidden_size: int = 32,
        num_layers: int = 2,
    ) -> None:
        super().__init__()
        self.vocab_size = int(vocab_size)
        self.embedding = Embedding(vocab_size, embedding_dim, rng)
        self.lstm = LSTM(embedding_dim, hidden_size, num_layers, rng)
        self.head = Linear(hidden_size, vocab_size, rng)
        self._cache_seq: tuple[int, int] | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        ids = np.asarray(inputs)
        if ids.ndim != 2:
            raise ModelError("CharLSTM expects (batch, sequence) integer inputs")
        embedded = self.embedding(ids)
        states = self.lstm(embedded)
        self._cache_seq = (states.shape[1], states.shape[2]) if self.training else None
        # Predict the next character from the final hidden state.
        return self.head(states[:, -1, :])

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache_seq is None:
            raise ModelError("backward called before forward")
        seq_len, hidden = self._cache_seq
        grad_last = self.head.backward(grad_output)
        grad_states = np.zeros((grad_last.shape[0], seq_len, hidden))
        grad_states[:, -1, :] = grad_last
        grad_embedded = self.lstm.backward(grad_states)
        return self.embedding.backward(grad_embedded)


class MatrixFactorization(Module):
    """Biased matrix factorization for the MovieLens-like recommendation task.

    The forward pass takes an integer array of shape ``(batch, 2)`` holding
    ``(user_id, item_id)`` pairs and returns the predicted rating for each
    pair.  Training uses :class:`repro.nn.losses.MSELoss`.
    """

    def __init__(
        self,
        num_users: int,
        num_items: int,
        rng: np.random.Generator,
        embedding_dim: int = 8,
    ) -> None:
        super().__init__()
        if num_users <= 0 or num_items <= 0 or embedding_dim <= 0:
            raise ModelError("MatrixFactorization dimensions must be positive")
        self.num_users = int(num_users)
        self.num_items = int(num_items)
        self.embedding_dim = int(embedding_dim)
        self.user_factors = Embedding(num_users, embedding_dim, rng)
        self.item_factors = Embedding(num_items, embedding_dim, rng)
        self.user_bias = Parameter(np.zeros(num_users), name="mf.user_bias")
        self.item_bias = Parameter(np.zeros(num_items), name="mf.item_bias")
        self.global_bias = Parameter(np.zeros(1), name="mf.global_bias")
        self._cache: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        pairs = np.asarray(inputs)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ModelError("MatrixFactorization expects (batch, 2) [user, item] ids")
        users = pairs[:, 0]
        items = pairs[:, 1]
        user_vectors = self.user_factors(users)
        item_vectors = self.item_factors(items)
        self._cache = (users, items, user_vectors, item_vectors) if self.training else None
        ratings = (
            (user_vectors * item_vectors).sum(axis=1)
            + self.user_bias.value[users]
            + self.item_bias.value[items]
            + self.global_bias.value[0]
        )
        return ratings

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ModelError("backward called before forward")
        users, items, user_vectors, item_vectors = self._cache
        grad = np.asarray(grad_output, dtype=np.float64).reshape(-1)
        self.user_factors.backward(grad[:, None] * item_vectors)
        self.item_factors.backward(grad[:, None] * user_vectors)
        np.add.at(self.user_bias.grad, users, grad)
        np.add.at(self.item_bias.grad, items, grad)
        self.global_bias.grad += grad.sum()
        return np.zeros((grad.size, 2))
