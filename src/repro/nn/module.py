"""Module and parameter abstractions of the numpy neural-network substrate.

This replaces PyTorch in the original JWINS implementation.  Models are built
from :class:`Module` objects that implement an explicit ``forward``/``backward``
pair (reverse-mode differentiation without a tape), and expose their trainable
state as a list of :class:`Parameter` objects.  Decentralized learning treats
the model as a flat vector, so :func:`get_flat_parameters` /
:func:`set_flat_parameters` are the bridge every sharing scheme uses.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.exceptions import ModelError
from repro.utils.vectors import flatten_arrays

__all__ = [
    "Module",
    "Parameter",
    "assign_flat_values",
    "flat_values",
    "get_flat_gradients",
    "get_flat_parameters",
    "set_flat_parameters",
]


class Parameter:
    """A trainable array and its accumulated gradient."""

    __slots__ = ("value", "grad", "name")

    def __init__(self, value: np.ndarray, name: str = "") -> None:
        self.value = np.asarray(value, dtype=np.float64)
        # ``np.zeros`` (calloc), not ``zeros_like`` (allocate + fill): the pages
        # are first touched by the first backward, not by model construction.
        self.grad = np.zeros(self.value.shape)
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.value.shape)

    @property
    def size(self) -> int:
        return int(self.value.size)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)


class Module:
    """Base class of every layer and model.

    Subclasses register parameters and sub-modules as plain attributes; the
    recursive traversal in :meth:`parameters` and :meth:`modules` discovers
    them in attribute-definition order, which makes the flat parameter layout
    deterministic across nodes — a requirement for decentralized averaging.

    The ``forward``/``backward`` contract: in train mode (``training`` true,
    the default) a ``forward`` caches what exactly one ``backward`` needs.  In
    eval mode a ``forward`` caches nothing — its intermediates die with the
    call — and a ``backward`` after it raises :class:`~repro.exceptions.ModelError`.
    A layer's ``backward`` accumulates its parameter gradients and returns the
    gradient with respect to its input; a root model's ``backward`` accumulates
    the parameter gradients of every layer and may return ``None`` where no
    caller has a use for the input gradient (the CNNs and the MLP of
    :mod:`repro.nn.models`).
    """

    def __init__(self) -> None:
        self.training = True

    # -- forward / backward -------------------------------------------------
    def forward(self, inputs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, inputs: np.ndarray) -> np.ndarray:
        return self.forward(inputs)

    # -- traversal -----------------------------------------------------------
    def modules(self) -> Iterator["Module"]:
        """Yield this module and all sub-modules, depth-first."""

        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    def parameters(self) -> list[Parameter]:
        """Return every trainable parameter in deterministic order."""

        found: list[Parameter] = []
        for module in self.modules():
            for value in vars(module).values():
                if isinstance(value, Parameter):
                    found.append(value)
                elif isinstance(value, (list, tuple)):
                    found.extend(item for item in value if isinstance(item, Parameter))
        return found

    # -- training-state helpers ----------------------------------------------
    def train(self) -> "Module":
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        for module in self.modules():
            module.training = False
        return self

    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.zero_grad()

    @property
    def num_parameters(self) -> int:
        """Total number of scalar parameters."""

        return int(sum(parameter.size for parameter in self.parameters()))


def flat_values(parameters: Sequence[Parameter]) -> np.ndarray:
    """Return the values of ``parameters`` as one flat float64 vector."""

    return flatten_arrays([parameter.value for parameter in parameters])


def assign_flat_values(parameters: Sequence[Parameter], vector: np.ndarray) -> None:
    """Write consecutive slices of ``vector`` into the values of ``parameters`` (in place)."""

    vector = np.asarray(vector, dtype=np.float64).ravel()
    total = sum(parameter.size for parameter in parameters)
    if vector.size != total:
        raise ModelError(f"vector has {vector.size} elements but shapes require {total}")
    offset = 0
    for parameter in parameters:
        stop = offset + parameter.size
        parameter.value[...] = vector[offset:stop].reshape(parameter.value.shape)
        offset = stop


def get_flat_parameters(module: Module) -> np.ndarray:
    """Return all parameters of ``module`` as one flat float64 vector."""

    return flat_values(module.parameters())


def set_flat_parameters(module: Module, vector: np.ndarray) -> None:
    """Write ``vector`` back into the parameters of ``module`` (in place)."""

    assign_flat_values(module.parameters(), vector)


def get_flat_gradients(module: Module) -> np.ndarray:
    """Return all accumulated gradients of ``module`` as one flat vector."""

    return flatten_arrays([parameter.grad for parameter in module.parameters()])
