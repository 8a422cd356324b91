"""Eval mode retains nothing — over the whole model zoo.

The ``Module`` contract: a train-mode ``forward`` caches for exactly one
``backward``; an eval-mode ``forward`` caches nothing, so an evaluation's
intermediates (im2col columns, arg-max maps, masks, gates) die with the call,
and a ``backward`` after it raises instead of differentiating the evaluation
batch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.nn import models
from repro.nn.module import Module, Parameter, get_flat_gradients

# One (constructor, batch) pair per exported model class.
ZOO = {
    "CelebACNN": (
        lambda rng: models.CelebACNN(rng),
        lambda rng: rng.normal(size=(4, 3, 16, 16)),
    ),
    "CharLSTM": (
        lambda rng: models.CharLSTM(9, rng, embedding_dim=3, hidden_size=5),
        lambda rng: rng.integers(0, 9, size=(4, 6)),
    ),
    "ConvClassifier": (
        lambda rng: models.ConvClassifier(2, 8, 3, rng, channels=(2, 3), hidden=5),
        lambda rng: rng.normal(size=(4, 2, 8, 8)),
    ),
    "FEMNISTCNN": (
        lambda rng: models.FEMNISTCNN(rng),
        lambda rng: rng.normal(size=(4, 1, 16, 16)),
    ),
    "GNLeNet": (
        lambda rng: models.GNLeNet(rng),
        lambda rng: rng.normal(size=(4, 3, 16, 16)),
    ),
    "MatrixFactorization": (
        lambda rng: models.MatrixFactorization(6, 7, rng, embedding_dim=3),
        lambda rng: np.stack([rng.integers(0, 6, size=4), rng.integers(0, 7, size=4)], axis=1),
    ),
    "MLPClassifier": (
        lambda rng: models.MLPClassifier(10, 6, 3, rng),
        lambda rng: rng.normal(size=(4, 10)),
    ),
}


def test_the_zoo_covers_every_exported_model():
    assert sorted(ZOO) == sorted(models.__all__)


def holds_array(value) -> bool:
    """Whether ``value`` is, or nests, an ndarray a module keeps alive itself."""

    if isinstance(value, np.ndarray):
        return True
    if isinstance(value, (Parameter, Module)):
        return False  # parameters are the model; sub-modules are visited themselves
    if isinstance(value, dict):
        return any(holds_array(item) for item in value.values())
    if isinstance(value, (list, tuple)):
        return any(holds_array(item) for item in value)
    return False


def retained(model: Module) -> list[str]:
    return [
        f"{type(module).__name__}.{name}"
        for module in model.modules()
        for name, value in vars(module).items()
        if holds_array(value)
    ]


@pytest.mark.parametrize("name", sorted(ZOO))
def test_an_eval_forward_retains_no_array_and_backward_raises(name):
    make_model, make_batch = ZOO[name]
    model = make_model(np.random.default_rng(0))
    batch = make_batch(np.random.default_rng(1))

    outputs = model.forward(batch)
    assert retained(model), "a train-mode forward must cache for its backward"
    model.backward(np.ones_like(outputs))

    model.eval()
    outputs = model.forward(batch)
    assert retained(model) == []
    with pytest.raises(ModelError, match="backward called before forward"):
        model.backward(np.ones_like(outputs))


@pytest.mark.parametrize("name", sorted(ZOO))
def test_training_after_an_evaluation_is_unchanged(name):
    make_model, make_batch = ZOO[name]
    batch = make_batch(np.random.default_rng(1))
    other_batch = make_batch(np.random.default_rng(2))
    gradients = []
    for evaluate_first in (False, True):
        model = make_model(np.random.default_rng(0))
        if evaluate_first:
            model.eval()
            model.forward(other_batch)
            model.train()
        outputs = model.forward(batch)
        model.backward(np.ones_like(outputs))
        gradients.append(get_flat_gradients(model))
    assert np.abs(gradients[0]).sum() > 0
    assert gradients[0].tobytes() == gradients[1].tobytes()


@pytest.mark.parametrize("name", sorted(ZOO))
def test_eval_and_train_forwards_agree(name):
    """Eval mode changes what is kept, never what is computed."""

    make_model, make_batch = ZOO[name]
    model = make_model(np.random.default_rng(0))
    batch = make_batch(np.random.default_rng(1))
    trained = model.forward(batch)
    evaluated = model.eval().forward(batch)
    assert evaluated.tobytes() == trained.tobytes()
