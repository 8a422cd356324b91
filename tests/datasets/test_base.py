"""Tests for the Dataset and LearningTask abstractions."""

import numpy as np
import pytest

from repro.datasets.base import (
    Dataset,
    classification_accuracy,
    iterate_minibatches,
    rating_accuracy,
)
from repro.exceptions import DatasetError


def _dataset(samples=10):
    inputs = np.arange(samples * 2, dtype=float).reshape(samples, 2)
    targets = np.arange(samples)
    return Dataset(inputs, targets)


def test_len():
    assert len(_dataset(5)) == 5


def test_mismatched_lengths_raise():
    with pytest.raises(DatasetError):
        Dataset(np.zeros((3, 2)), np.zeros(4))


def test_client_ids_length_checked():
    with pytest.raises(DatasetError):
        Dataset(np.zeros((3, 2)), np.zeros(3), client_ids=np.zeros(2))


def test_subset_preserves_client_ids():
    dataset = Dataset(np.zeros((4, 2)), np.arange(4), client_ids=np.array([0, 0, 1, 1]))
    sub = dataset.subset(np.array([2, 3]))
    assert len(sub) == 2
    assert np.array_equal(sub.client_ids, [1, 1])


def test_subset_out_of_range_raises():
    with pytest.raises(DatasetError):
        _dataset(3).subset(np.array([5]))


def test_batch_returns_requested_rows():
    dataset = _dataset(6)
    inputs, targets = dataset.batch(np.array([0, 5]))
    assert inputs.shape == (2, 2)
    assert np.array_equal(targets, [0, 5])


def test_iterate_minibatches_covers_dataset_once():
    dataset = _dataset(10)
    seen = []
    for inputs, targets in iterate_minibatches(dataset, batch_size=3):
        seen.extend(targets.tolist())
    assert sorted(seen) == list(range(10))


def test_iterate_minibatches_shuffles_with_rng():
    dataset = _dataset(32)
    ordered = [t for _, targets in iterate_minibatches(dataset, 8) for t in targets]
    shuffled = [
        t
        for _, targets in iterate_minibatches(dataset, 8, np.random.default_rng(0))
        for t in targets
    ]
    assert sorted(ordered) == sorted(shuffled)
    assert ordered != shuffled


def test_iterate_minibatches_invalid_batch_size():
    with pytest.raises(DatasetError):
        list(iterate_minibatches(_dataset(4), 0))


def test_classification_accuracy():
    outputs = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4], [0.3, 0.7]])
    targets = np.array([0, 1, 1, 1])
    assert classification_accuracy(outputs, targets) == pytest.approx(0.75)


def test_rating_accuracy_within_tolerance():
    predictions = np.array([3.0, 4.6, 1.0])
    targets = np.array([3.4, 4.0, 2.0])
    assert rating_accuracy(predictions, targets) == pytest.approx(1 / 3)


def test_learning_task_model_size(toy_task):
    assert toy_task.model_size > 0
    model = toy_task.make_model(np.random.default_rng(0))
    assert model.num_parameters == toy_task.model_size
