"""Tests for dense, embedding and utility layers."""

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.nn.activations import ReLU, sigmoid
from repro.nn.layers import Embedding, Flatten, Linear


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def test_linear_forward_shape_and_bias(rng):
    layer = Linear(4, 3, rng)
    outputs = layer.forward(np.zeros((5, 4)))
    assert outputs.shape == (5, 3)
    assert np.allclose(outputs, layer.bias.value)


def test_linear_accepts_single_sample(rng):
    layer = Linear(4, 2, rng)
    assert layer.forward(np.zeros(4)).shape == (1, 2)


def test_linear_backward_shapes_and_grad_accumulation(rng):
    layer = Linear(4, 3, rng)
    inputs = rng.normal(size=(6, 4))
    layer.forward(inputs)
    grad_in = layer.backward(np.ones((6, 3)))
    assert grad_in.shape == inputs.shape
    assert layer.weight.grad.shape == (3, 4)
    assert np.allclose(layer.bias.grad, 6.0)


def test_linear_wrong_input_size_raises(rng):
    with pytest.raises(ModelError):
        Linear(4, 3, rng).forward(np.zeros((2, 5)))


def test_linear_backward_before_forward_raises(rng):
    with pytest.raises(ModelError):
        Linear(4, 3, rng).backward(np.zeros((2, 3)))


def test_embedding_lookup_and_gradient(rng):
    layer = Embedding(10, 4, rng)
    ids = np.array([[1, 2], [2, 3]])
    outputs = layer.forward(ids)
    assert outputs.shape == (2, 2, 4)
    assert np.allclose(outputs[0, 1], outputs[1, 0])
    layer.backward(np.ones((2, 2, 4)))
    # Id 2 appears twice so its gradient is twice as large as id 1's.
    assert np.allclose(layer.weight.grad[2], 2.0)
    assert np.allclose(layer.weight.grad[1], 1.0)
    assert np.allclose(layer.weight.grad[5], 0.0)


def test_embedding_rejects_float_ids(rng):
    with pytest.raises(ModelError):
        Embedding(10, 4, rng).forward(np.zeros((2, 2)))


def test_embedding_rejects_out_of_range_ids(rng):
    with pytest.raises(ModelError):
        Embedding(4, 2, rng).forward(np.array([[5]]))


def test_flatten_roundtrip():
    layer = Flatten()
    inputs = np.arange(24.0).reshape(2, 3, 4)
    outputs = layer.forward(inputs)
    assert outputs.shape == (2, 12)
    assert layer.backward(outputs).shape == inputs.shape


def test_relu_masks_negative_inputs():
    layer = ReLU()
    outputs = layer.forward(np.array([-1.0, 2.0, -3.0]))
    assert np.array_equal(outputs, [0.0, 2.0, 0.0])
    grads = layer.backward(np.ones(3))
    assert np.array_equal(grads, [0.0, 1.0, 0.0])


def test_sigmoid_extreme_inputs_are_stable():
    outputs = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
    assert np.all(np.isfinite(outputs))
    assert outputs[0] == pytest.approx(0.0)
    assert outputs[1] == pytest.approx(0.5)
    assert outputs[2] == pytest.approx(1.0)
