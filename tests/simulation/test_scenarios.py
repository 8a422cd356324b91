"""Engine-level scenario tests: churn, partitions, stragglers, both modes.

The two pins that matter most:

* legacy ``dynamic_topology=True`` synchronous runs must stay bit-identical
  to the pre-scenario behavior (checked against the frozen seed-runner port
  in :mod:`tests.simulation.test_engine`);
* scenario runs themselves must be deterministic — same seed, same schedule,
  bit-identical ``to_dict()`` output across reruns.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import full_sharing_factory
from repro.scenarios import (
    NodeOutage,
    PartitionWindow,
    ScenarioSchedule,
    StragglerWindow,
    get_scenario,
)
from repro.simulation import ExperimentConfig, Simulator, run_experiment
from repro.topology.policy import GeneratorPolicy
from tests.conftest import make_toy_task
from tests.simulation.test_engine import REGRESSION_CONFIG, reference_run_experiment

CONFIG = ExperimentConfig(
    num_nodes=6,
    degree=2,
    rounds=6,
    local_steps=1,
    batch_size=8,
    learning_rate=0.1,
    eval_every=2,
    eval_test_samples=48,
    seed=3,
    partition="shards",
)

HALVES = PartitionWindow(start_round=0, end_round=6, groups=((0, 1, 2), (3, 4, 5)))


def _run(config):
    return run_experiment(make_toy_task(), full_sharing_factory(), config)


# -- legacy equivalence pins -------------------------------------------------------


def test_legacy_dynamic_topology_matches_the_frozen_seed_runner():
    config = replace(REGRESSION_CONFIG, dynamic_topology=True)
    reference = reference_run_experiment(make_toy_task(), full_sharing_factory(), config)
    current = _run(config)
    assert current.history == reference.history
    assert current.total_bytes == reference.total_bytes
    assert current.simulated_time_seconds == reference.simulated_time_seconds
    assert current.scenario_rounds == []  # rewiring alone records no event trace


def test_dynamic_scenario_equals_legacy_flag_bit_for_bit():
    legacy = _run(replace(CONFIG, dynamic_topology=True))
    scenario = _run(
        replace(CONFIG, scenario=ScenarioSchedule(
            name="dynamic", topology=GeneratorPolicy(rewire_every=1)
        ))
    )
    assert scenario.history == legacy.history
    assert scenario.total_bytes == legacy.total_bytes
    assert scenario.simulated_time_seconds == legacy.simulated_time_seconds


def test_trivial_scenario_equals_no_scenario_bit_for_bit():
    plain = _run(CONFIG)
    trivial = _run(replace(CONFIG, scenario=ScenarioSchedule()))
    assert trivial.to_dict() == plain.to_dict()


def test_scenario_and_legacy_flag_are_mutually_exclusive():
    from repro.exceptions import ConfigurationError

    with pytest.raises(ConfigurationError, match="mutually exclusive"):
        replace(CONFIG, dynamic_topology=True, scenario=ScenarioSchedule())


# -- determinism -------------------------------------------------------------------


@pytest.mark.parametrize("execution", ["sync", "async"])
def test_churn_partition_runs_are_bit_identical_across_reruns(execution):
    scenario = get_scenario("churn-partition", num_nodes=6, rounds=6)
    config = replace(CONFIG, scenario=scenario, execution=execution)
    first = _run(config)
    second = _run(config)
    assert first.to_dict() == second.to_dict()
    assert first.scenario_rounds  # the event trace is populated


# -- churn semantics ---------------------------------------------------------------


def test_offline_node_is_frozen_and_traced_in_sync_mode():
    scenario = ScenarioSchedule(
        name="one-out", outages=(NodeOutage(node=0, start_round=1, end_round=3),)
    )
    config = replace(CONFIG, scenario=scenario)
    simulator = Simulator(make_toy_task(), full_sharing_factory(), config)
    snapshots: list[list[np.ndarray]] = []
    simulator.on_round_end(
        lambda round_index, node_id, now: snapshots.append(
            [node.get_parameters() for node in simulator.nodes]
        )
    )
    result = simulator.run()

    # Node 0 sat out rounds 1 and 2: its parameters froze, the others moved.
    assert np.array_equal(snapshots[1][0], snapshots[0][0])
    assert np.array_equal(snapshots[2][0], snapshots[1][0])
    assert not np.array_equal(snapshots[3][0], snapshots[2][0])  # rejoined
    assert not np.array_equal(snapshots[1][1], snapshots[0][1])

    assert [row["round"] for row in result.scenario_rounds] == list(range(6))
    assert result.scenario_rounds[0]["active_nodes"] == [0, 1, 2, 3, 4, 5]
    assert result.scenario_rounds[1]["active_nodes"] == [1, 2, 3, 4, 5]
    assert result.scenario_rounds[3]["active_nodes"] == [0, 1, 2, 3, 4, 5]


@pytest.mark.parametrize("execution", ["sync", "async"])
def test_offline_node_neither_sends_nor_receives(execution):
    scenario = ScenarioSchedule(
        name="one-out", outages=(NodeOutage(node=0, start_round=0, end_round=6),)
    )
    simulator = Simulator(
        make_toy_task(),
        full_sharing_factory(),
        replace(CONFIG, scenario=scenario, execution=execution),
    )
    touched: set[int] = set()
    simulator.on_message(
        lambda message, receiver, now: touched.update((message.sender, receiver))
    )
    simulator.run()
    assert 0 not in touched


@pytest.mark.parametrize("execution", ["sync", "async"])
def test_churn_run_completes_all_rounds(execution):
    scenario = get_scenario("churn", num_nodes=6, rounds=6)
    result = _run(replace(CONFIG, scenario=scenario, execution=execution))
    assert result.rounds_completed == CONFIG.rounds
    assert len(result.scenario_rounds) == CONFIG.rounds


# -- partition semantics -----------------------------------------------------------


@pytest.mark.parametrize("execution", ["sync", "async"])
def test_partition_blocks_every_cross_group_delivery(execution):
    scenario = ScenarioSchedule(name="split", partitions=(HALVES,))
    config = replace(CONFIG, scenario=scenario, execution=execution)
    simulator = Simulator(make_toy_task(), full_sharing_factory(), config)
    crossings = []
    group = {node: 0 if node < 3 else 1 for node in range(6)}
    simulator.on_message(
        lambda message, receiver, now: crossings.append((message.sender, receiver))
        if group[message.sender] != group[receiver]
        else None
    )
    result = simulator.run()
    assert crossings == []
    assert result.scenario_rounds[0]["partition_ids"] == [0, 0, 0, 1, 1, 1]


def test_partition_window_closes_again():
    window = PartitionWindow(start_round=1, end_round=3, groups=((0, 1, 2), (3, 4, 5)))
    scenario = ScenarioSchedule(name="brief-split", partitions=(window,))
    simulator = Simulator(
        make_toy_task(), full_sharing_factory(), replace(CONFIG, scenario=scenario)
    )
    by_round: dict[int, list[tuple[int, int]]] = {}
    current_round = [0]
    group = {node: 0 if node < 3 else 1 for node in range(6)}

    def on_message(message, receiver, now):
        if group[message.sender] != group[receiver]:
            by_round.setdefault(current_round[0], []).append((message.sender, receiver))

    def on_round_end(round_index, node_id, now):
        current_round[0] = round_index + 1

    simulator.on_message(on_message).on_round_end(on_round_end)
    result = simulator.run()
    assert 1 not in by_round and 2 not in by_round  # window open: no crossings
    assert by_round.get(0) or by_round.get(3)  # closed windows do cross
    assert result.scenario_rounds[1]["partition_ids"] == [0, 0, 0, 1, 1, 1]
    assert result.scenario_rounds[3]["partition_ids"] == [None] * 6


# -- straggler semantics -----------------------------------------------------------


def test_stragglers_stretch_the_synchronous_clock():
    window = StragglerWindow(start_round=0, end_round=6, nodes=(0,), slowdown=5.0)
    scenario = ScenarioSchedule(name="slow", stragglers=(window,))
    baseline = _run(CONFIG)
    slowed = _run(replace(CONFIG, scenario=scenario))
    assert slowed.simulated_time_seconds > baseline.simulated_time_seconds
    # The accuracy trajectory is untouched: stragglers only cost time.
    assert [r.test_accuracy for r in slowed.history] == [
        r.test_accuracy for r in baseline.history
    ]


def test_stragglers_skew_the_asynchronous_clocks():
    window = StragglerWindow(start_round=0, end_round=6, nodes=(0,), slowdown=5.0)
    scenario = ScenarioSchedule(name="slow", stragglers=(window,))
    result = _run(replace(CONFIG, scenario=scenario, execution="async"))
    times = result.per_node_time_seconds
    assert times[0] == max(times)
    assert result.clock_skew_seconds > 0.0


# -- serialization of the trace ----------------------------------------------------


def test_result_with_scenario_trace_round_trips_exactly():
    import json

    from repro.simulation import ExperimentResult

    scenario = get_scenario("churn-partition", num_nodes=6, rounds=6)
    result = _run(replace(CONFIG, scenario=scenario))
    rebuilt = ExperimentResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert rebuilt == result
    assert rebuilt.scenario_rounds == result.scenario_rounds


# -- byzantine semantics -----------------------------------------------------------


def _byzantine_schedule(mode: str) -> ScenarioSchedule:
    from repro.scenarios import ByzantineWindow

    return ScenarioSchedule(
        name=f"byz-{mode}",
        byzantine=(
            ByzantineWindow(start_round=1, end_round=4, nodes=(4, 5), mode=mode),
        ),
    )


@pytest.mark.parametrize("execution", ["sync", "async"])
@pytest.mark.parametrize("mode", ["random-gradient", "sign-flip", "stale-replay"])
def test_byzantine_runs_are_bit_identical_across_reruns(mode, execution):
    config = replace(CONFIG, scenario=_byzantine_schedule(mode), execution=execution)
    assert _run(config).to_dict() == _run(config).to_dict()


@pytest.mark.parametrize("mode", ["random-gradient", "sign-flip", "stale-replay"])
def test_byzantine_window_changes_the_learning_dynamics(mode):
    honest = _run(CONFIG)
    attacked = _run(replace(CONFIG, scenario=_byzantine_schedule(mode)))
    assert [r.test_accuracy for r in attacked.history] != [
        r.test_accuracy for r in honest.history
    ]


@pytest.mark.parametrize("execution", ["sync", "async"])
def test_byzantine_sends_are_counted_per_mode(execution):
    from repro.observability.metrics import MetricsRegistry

    registry = MetricsRegistry()
    config = replace(CONFIG, scenario=_byzantine_schedule("sign-flip"), execution=execution)
    run_experiment(make_toy_task(), full_sharing_factory(), config, observers=(registry,))
    # 2 attackers x 3 in-window rounds, all under the sign-flip label.
    assert registry.counter("engine_byzantine_sends", mode="sign-flip").value == 6.0
    assert registry.counter("engine_byzantine_sends", mode="stale-replay").value == 0.0
    assert registry.counter("engine_byzantine_sends", mode="random-gradient").value == 0.0


def test_sign_flip_mirrors_the_update_exactly():
    """The corrupted model is params_start - (params_trained - params_start)."""

    config = replace(CONFIG, scenario=_byzantine_schedule("sign-flip"))
    simulator = Simulator(make_toy_task(), full_sharing_factory(), config)
    state = config.scenario.state_at(1, config.num_nodes)
    params_start = np.arange(4, dtype=np.float64)
    params_trained = params_start + np.array([1.0, -2.0, 0.5, 0.0])
    corrupted = simulator.apply_byzantine(4, 1, state, params_start, params_trained)
    assert np.array_equal(corrupted, params_start - (params_trained - params_start))
    # Honest nodes pass through untouched.
    honest = simulator.apply_byzantine(0, 1, state, params_start, params_trained)
    assert honest is params_trained


def test_stale_replay_freezes_the_first_in_window_model():
    config = replace(CONFIG, scenario=_byzantine_schedule("stale-replay"))
    simulator = Simulator(make_toy_task(), full_sharing_factory(), config)
    state = config.scenario.state_at(1, config.num_nodes)
    first = np.array([1.0, 2.0, 3.0])
    later = np.array([9.0, 9.0, 9.0])
    frozen = simulator.apply_byzantine(4, 1, state, np.zeros(3), first)
    assert np.array_equal(frozen, first)
    replayed = simulator.apply_byzantine(4, 2, state, np.zeros(3), later)
    assert np.array_equal(replayed, first)  # still the round-1 model
    # Once the node turns honest again the frozen model is discarded.
    honest_state = config.scenario.state_at(5, config.num_nodes)
    passthrough = simulator.apply_byzantine(4, 5, honest_state, np.zeros(3), later)
    assert passthrough is later
    assert 4 not in simulator._byzantine_stale
