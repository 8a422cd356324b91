"""Tests for the Module/Parameter system and flat-vector bridge."""

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.nn.layers import Linear
from repro.nn.models import MLPClassifier
from repro.nn.module import (
    Module,
    Parameter,
    get_flat_gradients,
    get_flat_parameters,
    set_flat_parameters,
)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def test_parameter_tracks_shape_and_grad(rng):
    parameter = Parameter(rng.normal(size=(3, 4)), name="w")
    assert parameter.shape == (3, 4)
    assert parameter.size == 12
    assert np.all(parameter.grad == 0)
    parameter.grad += 1.0
    parameter.zero_grad()
    assert np.all(parameter.grad == 0)


def test_parameters_discovered_in_deterministic_order(rng):
    model_a = MLPClassifier(6, 5, 3, np.random.default_rng(1))
    model_b = MLPClassifier(6, 5, 3, np.random.default_rng(1))
    shapes_a = [p.shape for p in model_a.parameters()]
    shapes_b = [p.shape for p in model_b.parameters()]
    assert shapes_a == shapes_b
    assert np.array_equal(get_flat_parameters(model_a), get_flat_parameters(model_b))


def test_num_parameters_matches_flat_vector(rng):
    model = MLPClassifier(8, 4, 2, rng)
    assert model.num_parameters == get_flat_parameters(model).size


def test_set_flat_parameters_roundtrip(rng):
    model = MLPClassifier(8, 4, 2, rng)
    vector = np.random.default_rng(3).normal(size=model.num_parameters)
    set_flat_parameters(model, vector)
    assert np.allclose(get_flat_parameters(model), vector)


def test_set_flat_parameters_wrong_size_raises(rng):
    model = MLPClassifier(8, 4, 2, rng)
    with pytest.raises(ModelError):
        set_flat_parameters(model, np.zeros(model.num_parameters + 1))


def test_zero_grad_clears_all_gradients(rng):
    model = MLPClassifier(4, 3, 2, rng)
    for parameter in model.parameters():
        parameter.grad += 1.0
    model.zero_grad()
    assert np.all(get_flat_gradients(model) == 0)


def test_train_eval_propagates_to_submodules(rng):
    model = MLPClassifier(4, 3, 2, rng)
    model.eval()
    assert all(not module.training for module in model.modules())
    model.train()
    assert all(module.training for module in model.modules())


def test_modules_in_lists_are_discovered(rng):
    model = Module()
    model.layers = [Linear(3, 3, rng), Linear(3, 3, rng)]
    assert len(list(model.modules())) == 3
    assert len(model.parameters()) == 4
