"""Tests for the wall-clock model."""

import pytest

from repro.simulation.timing import TimeModel


def test_round_duration_components():
    duration = TimeModel().round_duration(local_steps=3, max_bytes_sent_by_a_node=2000)
    assert duration == pytest.approx(
        3 * TimeModel.compute_seconds_per_step
        + 2000 / TimeModel.bandwidth_bytes_per_second
        + TimeModel.latency_seconds
    )


def test_more_bytes_means_longer_round():
    model = TimeModel()
    fast = model.round_duration(2, 1_000)
    slow = model.round_duration(2, 10_000_000)
    assert slow > fast


def test_zero_bytes_still_costs_compute_and_latency():
    assert TimeModel().round_duration(5, 0) == pytest.approx(5 * 0.02 + 0.02)


def test_negative_arguments_raise():
    model = TimeModel()
    with pytest.raises(ValueError):
        model.round_duration(-1, 0)
    with pytest.raises(ValueError):
        model.round_duration(1, -5)


def test_default_bandwidth_models_edge_uplink():
    """The default cluster model makes the network the bottleneck (10 Mbit/s uplink)."""

    assert TimeModel().bandwidth_bytes_per_second == pytest.approx(10e6 / 8)
