"""Dense, embedding and utility layers."""

from __future__ import annotations

import numpy as np

from repro.exceptions import ModelError
from repro.nn.init import kaiming_uniform, normal_init, uniform_init
from repro.nn.module import Module, Parameter

__all__ = ["Embedding", "Flatten", "Linear"]


class Linear(Module):
    """Fully connected layer ``y = x W^T + b``.

    A layer whose parameters carry a leading *member axis* — weight
    ``(members, out, in)``, bias ``(members, out)``, inputs ``(members, batch,
    in)`` — is ``members`` independent layers in one call: member ``r`` of every
    product is one 2-D ``matmul`` on its own rows, so it is bit-identical to the
    layer holding member ``r``'s parameters alone.

    Parameters
    ----------
    in_features, out_features:
        Input and output dimensionality.
    rng:
        Generator used for weight initialization.
    bias:
        Whether to include a bias term (default True).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ModelError("Linear layer dimensions must be positive")
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.weight = Parameter(
            kaiming_uniform(rng, (out_features, in_features), fan_in=in_features),
            name="linear.weight",
        )
        self.bias = (
            Parameter(
                uniform_init(rng, (out_features,), 1.0 / np.sqrt(in_features)),
                name="linear.bias",
            )
            if bias
            else None
        )
        self._cache_input: np.ndarray | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim == 1:
            inputs = inputs[None, :]
        if inputs.shape[-1] != self.in_features:
            raise ModelError(
                f"Linear expected {self.in_features} input features, got {inputs.shape[-1]}"
            )
        self._cache_input = inputs if self.training else None
        output = inputs @ self.weight.value.mT
        if self.bias is not None:
            output += self.bias.value[..., None, :]
        return output

    def backward_parameters(self, grad_output: np.ndarray) -> np.ndarray:
        """The parameter half of :meth:`backward`: accumulate the weight and bias gradients.

        All a model's first layer needs, since nothing consumes the gradient of
        the model's input.  Returns ``grad_output`` as the
        ``(batch, out_features)`` matrix (one per member) the input half starts
        from.
        """

        if self._cache_input is None:
            raise ModelError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        # Collapse any leading dimensions but the member axis into one batch dimension.
        members = self.weight.value.shape[:-2]
        flat_grad = grad_output.reshape(*members, -1, self.out_features)
        flat_in = self._cache_input.reshape(*members, -1, self.in_features)
        self.weight.grad += flat_grad.mT @ flat_in
        if self.bias is not None:
            self.bias.grad += flat_grad.sum(axis=-2)
        return flat_grad

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        flat_grad = self.backward_parameters(grad_output)
        return (flat_grad @ self.weight.value).reshape(self._cache_input.shape)


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(
        self, num_embeddings: int, embedding_dim: int, rng: np.random.Generator
    ) -> None:
        super().__init__()
        if num_embeddings <= 0 or embedding_dim <= 0:
            raise ModelError("Embedding dimensions must be positive")
        self.num_embeddings = int(num_embeddings)
        self.embedding_dim = int(embedding_dim)
        self.weight = Parameter(
            normal_init(rng, (num_embeddings, embedding_dim), std=0.1),
            name="embedding.weight",
        )
        self._cache_ids: np.ndarray | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        ids = np.asarray(inputs)
        if not np.issubdtype(ids.dtype, np.integer):
            raise ModelError("Embedding inputs must be integer ids")
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_embeddings):
            raise ModelError("Embedding ids out of range")
        self._cache_ids = ids if self.training else None
        return self.weight.value[ids]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache_ids is None:
            raise ModelError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        flat_ids = self._cache_ids.reshape(-1)
        flat_grad = grad_output.reshape(-1, self.embedding_dim)
        np.add.at(self.weight.grad, flat_ids, flat_grad)
        # Ids are discrete inputs: there is no gradient to propagate further.
        return np.zeros(self._cache_ids.shape, dtype=np.float64)


class Flatten(Module):
    """Flatten all dimensions except the batch dimension."""

    def __init__(self) -> None:
        super().__init__()
        self._cache_shape: tuple[int, ...] | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        self._cache_shape = inputs.shape if self.training else None
        return inputs.reshape(inputs.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache_shape is None:
            raise ModelError("backward called before forward")
        return np.asarray(grad_output, dtype=np.float64).reshape(self._cache_shape)
