"""Numerical gradient checks for every model architecture.

These are the strongest correctness tests of the NN substrate: the analytic
backward pass of each model is compared against central finite differences of
the loss with respect to every parameter — and, for ``Conv2d`` and
``MaxPool2d``, the layer's *input* gradient against differences in the input,
across kernel sizes, strides and paddings (the models only ever exercise
``_col2im`` at kernel 3, stride 1, padding 1).
"""

import numpy as np
import pytest

from repro.nn.conv import Conv2d, MaxPool2d
from repro.nn.losses import CrossEntropyLoss, MSELoss
from repro.nn.models import CharLSTM, ConvClassifier, MatrixFactorization, MLPClassifier
from repro.nn.module import get_flat_gradients, get_flat_parameters, set_flat_parameters


def _numerical_gradient(model, loss, inputs, targets, epsilon=1e-6):
    base = get_flat_parameters(model)
    grad = np.zeros_like(base)
    for index in range(base.size):
        perturbed = base.copy()
        perturbed[index] += epsilon
        set_flat_parameters(model, perturbed)
        plus = loss.forward(model.forward(inputs), targets)
        perturbed[index] -= 2 * epsilon
        set_flat_parameters(model, perturbed)
        minus = loss.forward(model.forward(inputs), targets)
        grad[index] = (plus - minus) / (2 * epsilon)
    set_flat_parameters(model, base)
    return grad


def _analytic_gradient(model, loss, inputs, targets):
    model.zero_grad()
    loss.forward(model.forward(inputs), targets)
    model.backward(loss.backward())
    return get_flat_gradients(model)


def _relative_error(analytic, numeric):
    scale = max(1e-8, float(np.max(np.abs(numeric))))
    return float(np.max(np.abs(analytic - numeric))) / scale


def test_mlp_gradients_match():
    rng = np.random.default_rng(0)
    model = MLPClassifier(6, 5, 3, rng)
    loss = CrossEntropyLoss()
    inputs = rng.normal(size=(3, 6))
    targets = rng.integers(0, 3, size=3)
    error = _relative_error(
        _analytic_gradient(model, loss, inputs, targets),
        _numerical_gradient(model, loss, inputs, targets),
    )
    assert error < 1e-6


def test_conv_classifier_gradients_match():
    rng = np.random.default_rng(1)
    model = ConvClassifier(2, 8, 3, rng, channels=(2, 3), hidden=5)
    loss = CrossEntropyLoss()
    inputs = rng.normal(size=(2, 2, 8, 8))
    targets = rng.integers(0, 3, size=2)
    error = _relative_error(
        _analytic_gradient(model, loss, inputs, targets),
        _numerical_gradient(model, loss, inputs, targets),
    )
    assert error < 1e-5


def test_char_lstm_gradients_match():
    rng = np.random.default_rng(2)
    model = CharLSTM(5, rng, embedding_dim=3, hidden_size=4, num_layers=2)
    loss = CrossEntropyLoss()
    inputs = rng.integers(0, 5, size=(2, 4))
    targets = rng.integers(0, 5, size=2)
    error = _relative_error(
        _analytic_gradient(model, loss, inputs, targets),
        _numerical_gradient(model, loss, inputs, targets),
    )
    assert error < 1e-5


def test_matrix_factorization_gradients_match():
    rng = np.random.default_rng(3)
    model = MatrixFactorization(4, 5, rng, embedding_dim=3)
    loss = MSELoss()
    pairs = np.stack([rng.integers(0, 4, size=6), rng.integers(0, 5, size=6)], axis=1)
    ratings = rng.normal(size=6)
    error = _relative_error(
        _analytic_gradient(model, loss, pairs, ratings),
        _numerical_gradient(model, loss, pairs, ratings),
    )
    assert error < 1e-6


@pytest.mark.parametrize("batch", [1, 4])
def test_gradients_scale_with_batch_size(batch):
    """Cross-entropy averages over the batch, so gradients stay O(1) in batch size."""

    rng = np.random.default_rng(4)
    model = MLPClassifier(4, 4, 2, rng)
    loss = CrossEntropyLoss()
    inputs = rng.normal(size=(batch, 4))
    targets = rng.integers(0, 2, size=batch)
    grad = _analytic_gradient(model, loss, inputs, targets)
    assert np.max(np.abs(grad)) < 10.0


def _input_gradient_error(layer, inputs, upstream, epsilon=1e-6):
    """``layer.backward`` vs central differences of ``sum(forward(x) * upstream)`` in x."""

    layer.forward(inputs)
    analytic = layer.backward(upstream)
    numeric = np.zeros_like(inputs)
    for index in np.ndindex(*inputs.shape):
        perturbed = inputs.copy()
        perturbed[index] += epsilon
        plus = np.sum(layer.forward(perturbed) * upstream)
        perturbed[index] -= 2 * epsilon
        minus = np.sum(layer.forward(perturbed) * upstream)
        numeric[index] = (plus - minus) / (2 * epsilon)
    return _relative_error(analytic, numeric)


@pytest.mark.parametrize("padding", [0, 2])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("kernel", [2, 3, 5])
def test_conv_input_gradient_matches(kernel, stride, padding):
    rng = np.random.default_rng(5)
    layer = Conv2d(2, 2, kernel, rng, stride=stride, padding=padding)
    inputs = rng.normal(size=(2, 2, 6, 5))
    upstream = rng.normal(size=layer.forward(inputs).shape)
    assert _input_gradient_error(layer, inputs, upstream) < 1e-6


@pytest.mark.parametrize("kernel", [2, 3])
def test_maxpool_input_gradient_matches(kernel):
    rng = np.random.default_rng(6)
    # Continuous random inputs: no window ties, so the maximum is differentiable.
    inputs = rng.normal(size=(2, 2, 2 * kernel, 2 * kernel))
    upstream = rng.normal(size=(2, 2, 2, 2))
    assert _input_gradient_error(MaxPool2d(kernel), inputs, upstream) < 1e-6
