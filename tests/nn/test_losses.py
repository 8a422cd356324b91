"""Tests for loss functions."""

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.nn.losses import CrossEntropyLoss, MSELoss, log_softmax, softmax


def test_softmax_rows_sum_to_one():
    logits = np.random.default_rng(0).normal(size=(5, 7))
    probabilities = softmax(logits)
    assert np.allclose(probabilities.sum(axis=1), 1.0)
    assert np.all(probabilities >= 0)


def test_softmax_stable_for_large_logits():
    probabilities = softmax(np.array([[1000.0, 0.0], [0.0, -1000.0]]))
    assert np.all(np.isfinite(probabilities))


def test_log_softmax_matches_log_of_softmax():
    logits = np.random.default_rng(1).normal(size=(4, 3))
    assert np.allclose(log_softmax(logits), np.log(softmax(logits)))


def test_cross_entropy_uniform_logits():
    loss = CrossEntropyLoss()
    value = loss.forward(np.zeros((3, 4)), np.array([0, 1, 2]))
    assert value == pytest.approx(np.log(4.0))


def test_cross_entropy_perfect_prediction_is_small():
    loss = CrossEntropyLoss()
    logits = np.array([[100.0, 0.0], [0.0, 100.0]])
    assert loss.forward(logits, np.array([0, 1])) < 1e-6


def test_cross_entropy_gradient_sums_to_zero_per_row():
    loss = CrossEntropyLoss()
    logits = np.random.default_rng(2).normal(size=(6, 5))
    loss.forward(logits, np.array([0, 1, 2, 3, 4, 0]))
    grad = loss.backward()
    assert grad.shape == logits.shape
    assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-12)


def test_cross_entropy_gradient_matches_numerical():
    loss = CrossEntropyLoss()
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(2, 3))
    targets = np.array([1, 2])
    loss.forward(logits, targets)
    analytic = loss.backward()
    numeric = np.zeros_like(logits)
    epsilon = 1e-6
    for i in range(2):
        for j in range(3):
            perturbed = logits.copy()
            perturbed[i, j] += epsilon
            plus = loss.forward(perturbed, targets)
            perturbed[i, j] -= 2 * epsilon
            minus = loss.forward(perturbed, targets)
            numeric[i, j] = (plus - minus) / (2 * epsilon)
    assert np.allclose(analytic, numeric, atol=1e-6)


def test_cross_entropy_rejects_float_targets():
    with pytest.raises(ModelError):
        CrossEntropyLoss().forward(np.zeros((2, 2)), np.zeros(2))


def test_cross_entropy_rejects_out_of_range_targets():
    with pytest.raises(ModelError):
        CrossEntropyLoss().forward(np.zeros((2, 2)), np.array([0, 5]))


def test_mse_value_and_gradient():
    loss = MSELoss()
    predictions = np.array([1.0, 2.0, 3.0])
    targets = np.array([1.0, 1.0, 1.0])
    assert loss.forward(predictions, targets) == pytest.approx((0 + 1 + 4) / 3)
    grad = loss.backward()
    assert np.allclose(grad, 2.0 * (predictions - targets) / 3)


def test_mse_reshapes_targets():
    loss = MSELoss()
    value = loss.forward(np.zeros((2, 1)), np.array([1.0, 1.0]))
    assert value == pytest.approx(1.0)


def test_backward_before_forward_raises():
    with pytest.raises(ModelError):
        CrossEntropyLoss().backward()
    with pytest.raises(ModelError):
        MSELoss().backward()
