"""Tests for the residual accumulator."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.sparsification.accumulation import ResidualAccumulator


def test_add_accumulates_across_calls():
    accumulator = ResidualAccumulator(4)
    accumulator.add(np.array([1.0, 0.0, -1.0, 2.0]))
    accumulator.add(np.array([1.0, 1.0, 1.0, 1.0]))
    assert np.array_equal(accumulator.scores, [2.0, 1.0, 0.0, 3.0])


def test_reset_indices_zeroes_only_selected():
    accumulator = ResidualAccumulator(5)
    accumulator.add(np.arange(5.0))
    accumulator.reset_indices(np.array([1, 3]))
    assert np.array_equal(accumulator.scores, [0.0, 0.0, 2.0, 0.0, 4.0])


def test_scores_view_is_read_only():
    accumulator = ResidualAccumulator(3)
    with pytest.raises(ValueError):
        accumulator.scores[0] = 1.0


def test_size_mismatch_raises():
    accumulator = ResidualAccumulator(3)
    with pytest.raises(ConfigurationError):
        accumulator.add(np.ones(4))


def test_reset_out_of_range_raises():
    accumulator = ResidualAccumulator(3)
    with pytest.raises(ConfigurationError):
        accumulator.reset_indices(np.array([5]))


def test_invalid_size_raises():
    with pytest.raises(ConfigurationError):
        ResidualAccumulator(0)


def test_slow_coordinates_eventually_dominate():
    """Accumulation lets small-but-steady changes overtake one-off spikes."""

    accumulator = ResidualAccumulator(2)
    accumulator.add(np.array([1.0, 0.3]))
    accumulator.reset_indices(np.array([0]))  # coordinate 0 was shared
    for _ in range(5):
        accumulator.add(np.array([0.05, 0.3]))
    assert accumulator.scores[1] > accumulator.scores[0]
