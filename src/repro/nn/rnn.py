"""Recurrent layers (LSTM) for the next-character-prediction task.

The paper's Shakespeare workload uses a stacked LSTM from the LEAF benchmark.
This module implements a batch-first LSTM with full backpropagation through
time; :class:`LSTM` stacks one or more :class:`LSTMLayer` instances.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ModelError
from repro.nn.activations import sigmoid
from repro.nn.init import uniform_init
from repro.nn.module import Module, Parameter

__all__ = ["LSTM", "LSTMLayer"]


class LSTMLayer(Module):
    """A single LSTM layer processing (batch, seq, features) inputs."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator) -> None:
        super().__init__()
        if input_size <= 0 or hidden_size <= 0:
            raise ModelError("LSTM dimensions must be positive")
        self.input_size = int(input_size)
        self.hidden_size = int(hidden_size)
        limit = 1.0 / np.sqrt(hidden_size)
        self.weight_ih = Parameter(
            uniform_init(rng, (4 * hidden_size, input_size), limit), name="lstm.weight_ih"
        )
        self.weight_hh = Parameter(
            uniform_init(rng, (4 * hidden_size, hidden_size), limit), name="lstm.weight_hh"
        )
        self.bias = Parameter(uniform_init(rng, (4 * hidden_size,), limit), name="lstm.bias")
        self._cache: dict[str, list[np.ndarray]] | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 3 or inputs.shape[2] != self.input_size:
            raise ModelError(
                f"LSTM expected (batch, seq, {self.input_size}) inputs, got {inputs.shape}"
            )
        batch, seq_len, _ = inputs.shape
        hidden = self.hidden_size
        h_state = np.zeros((batch, hidden))
        c_state = np.zeros((batch, hidden))
        cache: dict[str, list[np.ndarray]] = {
            "inputs": [],
            "h_prev": [],
            "c_prev": [],
            "gate_i": [],
            "gate_f": [],
            "gate_g": [],
            "gate_o": [],
            "c_state": [],
        }
        outputs = np.zeros((batch, seq_len, hidden))
        for step in range(seq_len):
            x_t = inputs[:, step, :]
            pre = x_t @ self.weight_ih.value.T + h_state @ self.weight_hh.value.T + self.bias.value
            gate_i = sigmoid(pre[:, :hidden])
            gate_f = sigmoid(pre[:, hidden : 2 * hidden])
            gate_g = np.tanh(pre[:, 2 * hidden : 3 * hidden])
            gate_o = sigmoid(pre[:, 3 * hidden :])
            c_next = gate_f * c_state + gate_i * gate_g
            if self.training:
                cache["inputs"].append(x_t)
                cache["h_prev"].append(h_state)
                cache["c_prev"].append(c_state)
                cache["gate_i"].append(gate_i)
                cache["gate_f"].append(gate_f)
                cache["gate_g"].append(gate_g)
                cache["gate_o"].append(gate_o)
                cache["c_state"].append(c_next)
            c_state = c_next
            h_state = gate_o * np.tanh(c_state)
            outputs[:, step, :] = h_state
        self._cache = cache if self.training else None
        return outputs

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ModelError("backward called before forward")
        cache = self._cache
        grad_output = np.asarray(grad_output, dtype=np.float64)
        seq_len = len(cache["inputs"])
        batch = cache["inputs"][0].shape[0]
        hidden = self.hidden_size
        grad_inputs = np.zeros((batch, seq_len, self.input_size))
        grad_h_next = np.zeros((batch, hidden))
        grad_c_next = np.zeros((batch, hidden))
        for step in range(seq_len - 1, -1, -1):
            gate_i = cache["gate_i"][step]
            gate_f = cache["gate_f"][step]
            gate_g = cache["gate_g"][step]
            gate_o = cache["gate_o"][step]
            c_state = cache["c_state"][step]
            c_prev = cache["c_prev"][step]
            h_prev = cache["h_prev"][step]
            x_t = cache["inputs"][step]

            grad_h = grad_output[:, step, :] + grad_h_next
            tanh_c = np.tanh(c_state)
            grad_o = grad_h * tanh_c
            grad_c = grad_h * gate_o * (1.0 - tanh_c**2) + grad_c_next
            grad_i = grad_c * gate_g
            grad_g = grad_c * gate_i
            grad_f = grad_c * c_prev
            grad_c_next = grad_c * gate_f

            # Pre-activation gradients (sigmoid and tanh derivatives).
            pre_i = grad_i * gate_i * (1.0 - gate_i)
            pre_f = grad_f * gate_f * (1.0 - gate_f)
            pre_g = grad_g * (1.0 - gate_g**2)
            pre_o = grad_o * gate_o * (1.0 - gate_o)
            pre = np.concatenate([pre_i, pre_f, pre_g, pre_o], axis=1)

            self.weight_ih.grad += pre.T @ x_t
            self.weight_hh.grad += pre.T @ h_prev
            self.bias.grad += pre.sum(axis=0)
            grad_inputs[:, step, :] = pre @ self.weight_ih.value
            grad_h_next = pre @ self.weight_hh.value
        return grad_inputs


class LSTM(Module):
    """A stack of LSTM layers (batch-first)."""

    def __init__(
        self, input_size: int, hidden_size: int, num_layers: int, rng: np.random.Generator
    ) -> None:
        super().__init__()
        if num_layers <= 0:
            raise ModelError("num_layers must be positive")
        self.layers = [
            LSTMLayer(input_size if index == 0 else hidden_size, hidden_size, rng)
            for index in range(num_layers)
        ]
        self.hidden_size = int(hidden_size)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        output = inputs
        for layer in self.layers:
            output = layer.forward(output)
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad
