"""Tests for the SGD optimizer."""

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.nn.module import Parameter
from repro.nn.optim import SGD


def test_plain_sgd_step():
    parameter = Parameter(np.array([1.0, 2.0]))
    parameter.grad[:] = [0.5, -0.5]
    SGD([parameter], lr=0.1).step()
    assert np.allclose(parameter.value, [0.95, 2.05])


def test_zero_grad_clears_gradients():
    parameter = Parameter(np.array([1.0]))
    parameter.grad[:] = [3.0]
    optimizer = SGD([parameter], lr=0.1)
    optimizer.zero_grad()
    assert parameter.grad[0] == 0.0


def test_minimizes_quadratic():
    parameter = Parameter(np.array([5.0]))
    optimizer = SGD([parameter], lr=0.1)
    for _ in range(200):
        parameter.grad[:] = 2.0 * parameter.value
        optimizer.step()
    assert abs(parameter.value[0]) < 1e-6


@pytest.mark.parametrize("kwargs", [{"lr": 0.0}])
def test_invalid_hyperparameters_raise(kwargs):
    with pytest.raises(ModelError):
        SGD([Parameter(np.zeros(1))], **kwargs)
