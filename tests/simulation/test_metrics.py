"""Tests for experiment metrics and result queries."""

import numpy as np
import pytest

from repro.simulation.metrics import ExperimentResult, RoundRecord


def _result_with_history():
    result = ExperimentResult(scheme="jwins", task="toy", num_nodes=4, rounds_completed=30)
    accuracies = [0.2, 0.4, 0.55, 0.6, 0.62]
    for index, accuracy in enumerate(accuracies):
        result.history.append(
            RoundRecord(
                round_index=(index + 1) * 10,
                test_accuracy=accuracy,
                test_loss=1.0 - accuracy,
                train_loss=1.0 - accuracy,
                cumulative_bytes_per_node=(index + 1) * 1000.0,
                cumulative_metadata_bytes_per_node=(index + 1) * 10.0,
                simulated_time_seconds=(index + 1) * 5.0,
                average_shared_fraction=0.37,
            )
        )
    result.total_bytes = 4 * 5000.0
    return result


def test_final_and_best_accuracy():
    result = _result_with_history()
    assert result.final_accuracy == pytest.approx(0.62)
    assert result.best_accuracy == pytest.approx(0.62)
    assert result.final_loss == pytest.approx(0.38)


def test_empty_history_yields_nan():
    result = ExperimentResult(scheme="x", task="y", num_nodes=2, rounds_completed=0)
    assert np.isnan(result.final_accuracy)
    assert np.isnan(result.best_accuracy)


def test_average_bytes_per_node():
    result = _result_with_history()
    assert result.average_bytes_per_node == pytest.approx(5000.0)


def test_accuracy_curve_follows_the_history():
    result = _result_with_history()
    rounds, accuracy = result.accuracy_curve()
    assert rounds.shape == accuracy.shape == (len(result.history),)
    assert np.all(np.diff(rounds) > 0)


def test_rounds_bytes_time_to_accuracy():
    result = _result_with_history()
    assert result.rounds_to_accuracy(0.5) == 30
    assert result.bytes_to_accuracy(0.5) == pytest.approx(3000.0)
    assert result.time_to_accuracy(0.5) == pytest.approx(15.0)


def test_unreachable_target_returns_none():
    result = _result_with_history()
    assert result.rounds_to_accuracy(0.99) is None
    assert result.bytes_to_accuracy(0.99) is None
    assert result.time_to_accuracy(0.99) is None
