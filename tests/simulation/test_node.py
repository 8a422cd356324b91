"""Tests for the simulation node."""

import tracemalloc

import numpy as np
import pytest

from repro.baselines.full_sharing import FullSharingScheme
from repro.datasets.base import Dataset
from repro.datasets.cifar10 import make_cifar10_task
from repro.exceptions import ModelError, SimulationError
from repro.simulation.node import SimulationNode
from tests.conftest import make_toy_task


def _make_node(task, node_id=0, local_steps=3, batch_size=8):
    model = task.make_model(np.random.default_rng(0))
    scheme = FullSharingScheme(node_id, model.num_parameters, seed=1)
    return SimulationNode(
        node_id=node_id,
        dataset=task.train,
        model=model,
        loss=task.make_loss(),
        scheme=scheme,
        learning_rate=0.1,
        batch_size=batch_size,
        local_steps=local_steps,
        rng=np.random.default_rng(7),
    )


def test_local_training_changes_parameters_and_reports_loss():
    task = make_toy_task()
    node = _make_node(task)
    start, trained = node.local_training()
    assert start.shape == trained.shape
    assert not np.allclose(start, trained)
    assert np.isfinite(node.last_train_loss)


def test_parameters_roundtrip():
    task = make_toy_task()
    node = _make_node(task)
    vector = np.random.default_rng(1).normal(size=node.get_parameters().size)
    node.set_parameters(vector)
    assert np.allclose(node.get_parameters(), vector)


def test_sample_batch_respects_batch_size():
    task = make_toy_task()
    node = _make_node(task, batch_size=16)
    inputs, targets = node.sample_batch()
    assert inputs.shape[0] == 16
    assert targets.shape[0] == 16


def test_sample_batch_with_tiny_partition_uses_replacement():
    task = make_toy_task(train_samples=40, test_samples=16)
    small = Dataset(task.train.inputs[:4], task.train.targets[:4])
    model = task.make_model(np.random.default_rng(0))
    node = SimulationNode(
        node_id=0,
        dataset=small,
        model=model,
        loss=task.make_loss(),
        scheme=FullSharingScheme(0, model.num_parameters, seed=1),
        learning_rate=0.1,
        batch_size=8,
        local_steps=1,
        rng=np.random.default_rng(0),
    )
    inputs, _ = node.sample_batch()
    assert inputs.shape[0] == 4


def test_evaluate_returns_loss_and_accuracy():
    task = make_toy_task()
    node = _make_node(task)
    loss, accuracy = node.evaluate(task.test.inputs, task.test.targets, task.accuracy_fn)
    assert np.isfinite(loss)
    assert 0.0 <= accuracy <= 1.0


def test_training_reduces_loss_over_many_steps():
    task = make_toy_task()
    node = _make_node(task, local_steps=40, batch_size=16)
    loss_before, _ = node.evaluate(task.test.inputs, task.test.targets, task.accuracy_fn)
    node.local_training()
    loss_after, _ = node.evaluate(task.test.inputs, task.test.targets, task.accuracy_fn)
    assert loss_after < loss_before


def test_empty_partition_rejected():
    task = make_toy_task()
    model = task.make_model(np.random.default_rng(0))
    empty = Dataset(task.train.inputs[:0], task.train.targets[:0])
    with pytest.raises(SimulationError):
        SimulationNode(
            node_id=0,
            dataset=empty,
            model=model,
            loss=task.make_loss(),
            scheme=FullSharingScheme(0, model.num_parameters, seed=1),
            learning_rate=0.1,
            batch_size=4,
            local_steps=1,
            rng=np.random.default_rng(0),
        )


def test_invalid_batch_size_rejected():
    task = make_toy_task()
    model = task.make_model(np.random.default_rng(0))
    with pytest.raises(SimulationError):
        SimulationNode(
            node_id=0,
            dataset=task.train,
            model=model,
            loss=task.make_loss(),
            scheme=FullSharingScheme(0, model.num_parameters, seed=1),
            learning_rate=0.1,
            batch_size=0,
            local_steps=1,
            rng=np.random.default_rng(0),
        )


def test_node_walks_the_module_tree_once():
    """The node's parameter list is the model's own ``Parameter`` objects."""

    task = make_toy_task()
    node = _make_node(task)
    walked = node.model.parameters()
    assert len(node.parameters) == len(walked)
    assert all(kept is found for kept, found in zip(node.parameters, walked))
    assert all(kept is tracked for kept, tracked in zip(node.parameters, node.optimizer.parameters))
    node.set_training(False)
    assert not any(module.training for module in node.model.modules())
    node.set_training(True)
    assert all(module.training for module in node.model.modules())


def test_set_parameters_rejects_a_wrong_size_vector():
    node = _make_node(make_toy_task())
    with pytest.raises(ModelError):
        node.set_parameters(np.zeros(node.get_parameters().size + 1))


def test_evaluate_retains_no_activation_memory():
    """128 CIFAR-10-like samples through the CNN leave (almost) nothing allocated.

    Before eval mode stopped filling the backward caches this read about
    +11 MB per node: batch-128 im2col columns, arg-max maps and masks stayed
    alive until the node next trained.  What remains is the loss's cache of
    the logits (128 x 10 floats).
    """

    task = make_cifar10_task(seed=3, train_samples=64, test_samples=128)
    node = _make_node(task)
    inputs, targets = task.test.inputs, task.test.targets
    node.evaluate(inputs, targets, task.accuracy_fn)  # warm lazily built state
    already_tracing = tracemalloc.is_tracing()
    if not already_tracing:
        tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        node.evaluate(inputs, targets, task.accuracy_fn)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        if not already_tracing:
            tracemalloc.stop()
    assert after - before <= 64 * 1024


def test_evaluate_restores_train_mode_when_the_evaluation_fails():
    task = make_toy_task()
    node = _make_node(task)
    with pytest.raises(ModelError):
        node.evaluate(task.test.inputs[:, :-1], task.test.targets, task.accuracy_fn)
    assert all(module.training for module in node.model.modules())
    node.local_training()  # the model still caches for backward
