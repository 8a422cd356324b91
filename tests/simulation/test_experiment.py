"""Tests for the experiment configuration."""

from dataclasses import replace

import pytest

from repro.exceptions import ConfigurationError
from repro.simulation.experiment import ExperimentConfig


def test_defaults_are_valid():
    config = ExperimentConfig()
    assert config.num_nodes == 16
    assert config.degree == 4


@pytest.mark.parametrize(
    "kwargs",
    [
        {"num_nodes": 1},
        {"degree": 0},
        {"degree": 16, "num_nodes": 16},
        {"rounds": 0},
        {"local_steps": 0},
        {"batch_size": 0},
        {"learning_rate": 0.0},
        {"eval_every": 0},
        {"partition": "bogus"},
        {"eval_test_samples": 0},
        {"eval_test_samples": -5},
        # Once NaN test loss ("Mean of empty slice"), once a numpy ValueError
        # after the first round had trained.
        {"eval_nodes": 0},
        {"eval_nodes": -1},
        {"execution": "bogus"},
        {"compute_speed_range": (0.0, 2.0)},
        {"compute_speed_range": (3.0, 2.0)},
        {"bandwidth_scale_range": (-1.0, 1.0)},
        {"link_latency_jitter_seconds": -0.1},
    ],
)
def test_invalid_configurations_raise(kwargs):
    with pytest.raises(ConfigurationError):
        ExperimentConfig(**kwargs)


def test_eval_nodes_boundaries_are_valid():
    assert ExperimentConfig(eval_nodes=None).eval_nodes is None
    assert ExperimentConfig(eval_nodes=1).eval_nodes == 1


def test_replace_returns_a_validated_copy():
    config = ExperimentConfig(rounds=10, seed=1)
    assert config.execution == "sync" and config.target_accuracy is None
    copy = replace(config, rounds=50, target_accuracy=0.8, execution="async")
    assert (copy.rounds, copy.target_accuracy, copy.execution) == (50, 0.8, "async")
    assert (config.rounds, config.execution) == (10, "sync")
    with pytest.raises(ConfigurationError):
        replace(config, execution="turbo")


def test_resolved_time_model_lifts_heterogeneity_knobs():
    from repro.simulation.timing import TimeModel

    config = ExperimentConfig(
        compute_speed_range=(1.0, 3.0),
        bandwidth_scale_range=(0.25, 1.0),
        link_latency_jitter_seconds=0.01,
    )
    model = config.resolved_time_model()
    assert model == TimeModel(
        compute_speed_range=(1.0, 3.0),
        bandwidth_scale_range=(0.25, 1.0),
        link_latency_jitter_seconds=0.01,
    )
    assert model.compute_seconds_per_step == 0.02
