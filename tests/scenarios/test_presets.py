"""Tests for the named scenario presets."""

from __future__ import annotations

import json

import pytest

from repro.baselines import full_sharing_factory
from repro.exceptions import ConfigurationError
from repro.scenarios import (
    SCENARIO_PRESETS,
    describe_scenarios,
    get_scenario,
)
from repro.scenarios.schedule import ScenarioSchedule
from repro.simulation import ExperimentConfig, run_experiment
from tests.conftest import make_toy_task


@pytest.mark.parametrize("name", sorted(SCENARIO_PRESETS))
@pytest.mark.parametrize("num_nodes,rounds", [(4, 1), (4, 2), (4, 3), (8, 20), (16, 40)])
def test_every_preset_builds_and_round_trips(name, num_nodes, rounds):
    schedule = get_scenario(name, num_nodes=num_nodes, rounds=rounds)
    schedule.validate_for(num_nodes)
    rebuilt = ScenarioSchedule.from_dict(json.loads(json.dumps(schedule.to_dict())))
    assert rebuilt == schedule
    # Every scheduled round keeps at least one node alive.
    for round_index in range(rounds):
        assert schedule.state_at(round_index, num_nodes).active


def test_preset_names_are_their_schedule_names():
    for name in SCENARIO_PRESETS:
        assert get_scenario(name, num_nodes=8, rounds=10).name == name


def test_unknown_preset_rejected():
    with pytest.raises(ConfigurationError, match="unknown scenario"):
        get_scenario("meteor-strike", num_nodes=8, rounds=10)


def test_lookup_is_case_insensitive():
    assert get_scenario("CHURN", num_nodes=8, rounds=10).name == "churn"


def test_churn_preset_schedules_outages():
    schedule = get_scenario("churn", num_nodes=8, rounds=20)
    assert schedule.outages
    assert all(outage.end_round is not None for outage in schedule.outages)


def test_partition_preset_splits_into_halves():
    schedule = get_scenario("partition", num_nodes=8, rounds=21)
    (window,) = schedule.partitions
    assert window.groups == ((0, 1, 2, 3), (4, 5, 6, 7))
    assert 0 < window.start_round < window.end_round <= 21


def test_describe_scenarios_lists_every_preset():
    text = describe_scenarios()
    for name in SCENARIO_PRESETS:
        assert name in text


def test_byzantine_preset_schedules_an_attack_window():
    schedule = get_scenario("byzantine", num_nodes=8, rounds=20)
    (window,) = schedule.byzantine
    assert window.mode == "sign-flip"
    assert window.nodes == (6, 7)  # the last quarter of the deployment
    assert 0 < window.start_round < window.end_round <= 20


@pytest.mark.parametrize("execution", ["sync", "async"])
@pytest.mark.parametrize("name", sorted(SCENARIO_PRESETS))
def test_every_preset_actually_runs_in_both_modes(name, execution):
    """Satellite coverage: presets are runnable, not just constructible."""

    num_nodes, rounds = 4, 3
    schedule = get_scenario(name, num_nodes=num_nodes, rounds=rounds)
    config = ExperimentConfig(
        num_nodes=num_nodes,
        degree=2,
        rounds=rounds,
        local_steps=1,
        batch_size=8,
        learning_rate=0.1,
        eval_every=2,
        eval_test_samples=32,
        seed=7,
        partition="shards",
        execution=execution,
        scenario=schedule,
        **(
            {"compute_speed_range": (1.0, 2.0), "link_latency_jitter_seconds": 0.01}
            if execution == "async"
            else {}
        ),
    )
    result = run_experiment(make_toy_task(), full_sharing_factory(), config)
    assert result.rounds_completed == rounds
    if schedule.has_events:
        assert result.scenario_rounds
