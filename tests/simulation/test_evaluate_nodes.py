"""``evaluate_nodes`` against the per-node evaluation loop it replaced.

For CNNs the function unfolds conv1's columns once per block of test samples
and runs every model's trunk on them, then each model's head on the whole
chunk.  Every loss, accuracy and logit must equal, bit for bit, what each
node's model gives when evaluated alone by the loop below (the old
``SimulationNode.evaluate``, frozen here with the old ``ConvClassifier``
forward chain).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.baselines.full_sharing import FullSharingScheme, full_sharing_factory
from repro.datasets.base import Dataset, classification_accuracy
from repro.datasets.cifar10 import make_cifar10_task
from repro.exceptions import ModelError
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import CelebACNN, ConvClassifier, FEMNISTCNN, GNLeNet, MLPClassifier
from repro.simulation import ENGINES, ExperimentConfig, run_experiment
from repro.simulation import engine as engine_module
from repro.simulation.node import SimulationNode, evaluate_nodes

#: ``name -> (model factory, input shape of one sample, classes)``.
MODELS = {
    "GNLeNet": (GNLeNet, (3, 16, 16), 10),
    "FEMNISTCNN": (FEMNISTCNN, (1, 16, 16), 10),
    "CelebACNN": (CelebACNN, (3, 16, 16), 2),
    "MLPClassifier": (lambda rng: MLPClassifier(16, 16, 4, rng), (1, 4, 4), 4),
}
SAMPLE_COUNTS = (1, 7, 31, 32, 33, 48, 128, 192, 300)


def _reference_forward(model, inputs):
    if isinstance(model, ConvClassifier):
        hidden = model.pool1(model.act1(model.conv1(inputs)))
        hidden = model.pool2(model.act2(model.conv2(hidden)))
        hidden = model.act3(model.fc1(model.flatten(hidden)))
        return model.fc2(hidden)
    return model.forward(inputs)


def _reference_evaluate(node, inputs, targets, accuracy_fn, batch_size=256):
    """The per-node evaluation loop, as it was before ``evaluate_nodes``."""

    node.set_training(False)
    try:
        total_loss = 0.0
        outputs_all = []
        count = inputs.shape[0]
        for start in range(0, count, batch_size):
            batch_inputs = inputs[start : start + batch_size]
            batch_targets = targets[start : start + batch_size]
            outputs = _reference_forward(node.model, batch_inputs)
            total_loss += node.loss.forward(outputs, batch_targets) * batch_inputs.shape[0]
            outputs_all.append(outputs)
        outputs = np.concatenate(outputs_all, axis=0)
    finally:
        node.set_training(True)
    return total_loss / count, float(accuracy_fn(outputs, targets))


def _nodes(name, members, seed=0):
    factory, shape, classes = MODELS[name]
    rng = np.random.default_rng(seed)
    dataset = Dataset(rng.normal(size=(4, *shape)), rng.integers(0, classes, size=4))
    nodes = []
    for node_id in range(members):
        model = factory(np.random.default_rng([seed, node_id]))
        nodes.append(
            SimulationNode(
                node_id=node_id,
                dataset=dataset,
                model=model,
                loss=CrossEntropyLoss(),
                scheme=FullSharingScheme(node_id, model.num_parameters, seed=1),
                learning_rate=0.1,
                batch_size=4,
                local_steps=1,
                rng=np.random.default_rng(node_id),
            )
        )
    return nodes


def _data(name, count, seed=1):
    _, shape, classes = MODELS[name]
    rng = np.random.default_rng([seed, count])
    return rng.normal(size=(count, *shape)), rng.integers(0, classes, size=count)


class _Recorder:
    """An accuracy function that keeps every logits matrix it is handed."""

    def __init__(self) -> None:
        self.outputs: list[np.ndarray] = []

    def __call__(self, outputs, targets):
        self.outputs.append(np.array(outputs))
        return classification_accuracy(outputs, targets)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _assert_matches_the_per_node_loop(nodes, inputs, targets):
    recorded, expected_logits = _Recorder(), _Recorder()
    got = evaluate_nodes(nodes, inputs, targets, recorded)
    expected = [_reference_evaluate(node, inputs, targets, expected_logits) for node in nodes]
    np.testing.assert_array_equal(_bits(got), _bits(expected))
    assert len(recorded.outputs) == len(expected_logits.outputs) == len(nodes)
    for logits, reference in zip(recorded.outputs, expected_logits.outputs):
        assert logits.shape == reference.shape
        np.testing.assert_array_equal(_bits(logits), _bits(reference))


@pytest.mark.parametrize("members", [1, 3, 8])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_evaluate_nodes_is_bit_identical_to_the_per_node_loop(name, members):
    nodes = _nodes(name, members)
    for count in SAMPLE_COUNTS:
        _assert_matches_the_per_node_loop(nodes, *_data(name, count))


@pytest.mark.parametrize("name", ["GNLeNet", "MLPClassifier"])
def test_evaluate_nodes_is_bit_identical_at_64_members(name):
    nodes = _nodes(name, 64, seed=2)
    for count in (33, 300):
        _assert_matches_the_per_node_loop(nodes, *_data(name, count))


def test_a_single_node_evaluate_is_the_one_node_case():
    nodes = _nodes("GNLeNet", 3)
    inputs, targets = _data("GNLeNet", 48)
    together = evaluate_nodes(nodes, inputs, targets, classification_accuracy)
    alone = [node.evaluate(inputs, targets, classification_accuracy) for node in nodes]
    np.testing.assert_array_equal(_bits(together), _bits(alone))


@pytest.mark.parametrize("engine", ENGINES)
def test_a_whole_run_evaluates_as_the_per_node_loop_did(monkeypatch, engine):
    """Both engines: a run's result is unchanged when the loop evaluates instead."""

    task = make_cifar10_task(seed=3, train_samples=96, test_samples=300)
    config = ExperimentConfig(
        num_nodes=6,
        degree=2,
        rounds=2,
        batch_size=8,
        eval_every=1,
        eval_test_samples=300,
        eval_nodes=4,
        seed=4,
        engine=engine,
    )
    result = run_experiment(task, full_sharing_factory(), config).to_dict()

    def per_node_loop(nodes, inputs, targets, accuracy_fn):
        return [_reference_evaluate(node, inputs, targets, accuracy_fn) for node in nodes]

    monkeypatch.setattr(engine_module, "evaluate_nodes", per_node_loop)
    reference = run_experiment(task, full_sharing_factory(), config).to_dict()
    assert len(result["history"]) == config.rounds
    assert result == reference


def _traced_peak(evaluate) -> int:
    evaluate()  # warm lazily built state
    tracemalloc.start()
    try:
        evaluate()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_shared_columns_peak_no_higher_than_the_per_node_loop():
    """8 GN-LeNets on 128 samples: blocks of shared columns, not one stacked GEMM.

    A stacked conv1 GEMM over all members' weights would add an
    ``(n * out_channels, 128 * 16 * 16)`` output, 16 MiB here.
    """

    nodes = _nodes("GNLeNet", 8)
    inputs, targets = _data("GNLeNet", 128)
    shared = _traced_peak(lambda: evaluate_nodes(nodes, inputs, targets, classification_accuracy))
    loop = _traced_peak(
        lambda: [
            _reference_evaluate(node, inputs, targets, classification_accuracy)
            for node in nodes
        ]
    )
    assert shared <= loop, (shared, loop)


@pytest.mark.parametrize("name", ["GNLeNet", "MLPClassifier"])
@pytest.mark.parametrize("failure", ["inputs", "targets"])
def test_every_model_is_back_in_train_mode_after_a_failed_evaluation(name, failure):
    nodes = _nodes(name, 4)
    inputs, targets = _data(name, 40)
    if failure == "inputs":
        inputs = inputs[:, :, :-1]  # a wrong image shape fails in the first forward
    else:
        targets = targets[:-1]  # mismatched targets fail in the first loss, after every forward
    with pytest.raises(ModelError):
        evaluate_nodes(nodes, inputs, targets, classification_accuracy)
    for node in nodes:
        assert all(module.training for module in node.model.modules())
        node.local_training()  # every model still caches for backward
