"""Smoke and determinism tests for the asynchronous gossip execution mode."""

from dataclasses import replace

import pytest

from repro.baselines import choco_factory, full_sharing_factory
from repro.core import JwinsConfig, jwins_factory
from repro.exceptions import ConfigurationError
from repro.simulation import ExperimentConfig, Simulator, run_experiment
from tests.conftest import make_toy_task

ASYNC_CONFIG = ExperimentConfig(
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
    execution="async",
    compute_speed_range=(1.0, 4.0),
    bandwidth_scale_range=(0.5, 1.0),
    link_latency_jitter_seconds=0.05,
)


def test_async_mode_runs_to_completion_with_stragglers():
    result = run_experiment(make_toy_task(), full_sharing_factory(), ASYNC_CONFIG)
    assert result.execution == "async"
    assert result.rounds_completed == ASYNC_CONFIG.rounds
    assert len(result.history) == ASYNC_CONFIG.rounds // ASYNC_CONFIG.eval_every
    assert result.total_bytes > 0
    assert result.simulated_time_seconds > 0


def test_async_mode_meters_one_byte_round_per_global_round():
    simulator = Simulator(make_toy_task(), full_sharing_factory(), ASYNC_CONFIG)
    result = simulator.run()
    per_round = simulator.meter._round_bytes
    assert len(per_round) == result.rounds_completed
    assert all(bytes_sent > 0 for bytes_sent in per_round)


def test_async_mode_reports_per_node_clock_skew():
    result = run_experiment(make_toy_task(), full_sharing_factory(), ASYNC_CONFIG)
    assert len(result.per_node_time_seconds) == ASYNC_CONFIG.num_nodes
    # With a 1-4x compute spread the stragglers must measurably lag.
    assert result.clock_skew_seconds > 0.0
    assert result.simulated_time_seconds == max(result.per_node_time_seconds)


def test_async_mode_is_deterministic():
    a = run_experiment(make_toy_task(), jwins_factory(JwinsConfig.paper_default()), ASYNC_CONFIG)
    b = run_experiment(make_toy_task(), jwins_factory(JwinsConfig.paper_default()), ASYNC_CONFIG)
    assert a.history == b.history
    assert a.total_bytes == b.total_bytes
    assert a.per_node_time_seconds == b.per_node_time_seconds


def test_async_mode_with_message_drops_still_learns_rounds():
    def count_deliveries(config):
        deliveries = []
        simulator = Simulator(make_toy_task(), full_sharing_factory(), config)
        simulator.on_message(lambda message, receiver, now: deliveries.append(receiver))
        result = simulator.run()
        return result, len(deliveries)

    lossy, lossy_deliveries = count_deliveries(
        replace(ASYNC_CONFIG, message_drop_probability=0.3)
    )
    lossless, lossless_deliveries = count_deliveries(ASYNC_CONFIG)
    # Gossip degrades gracefully: the run still completes every round, but
    # strictly fewer deliveries reach the receivers.  The sender's uplink
    # bytes are metered either way, so totals stay in the same ballpark.
    assert lossy.rounds_completed == ASYNC_CONFIG.rounds
    assert lossy_deliveries < lossless_deliveries
    assert lossy.total_bytes > 0


def test_async_mode_supports_stateful_choco():
    result = run_experiment(make_toy_task(), choco_factory(fraction=0.3), ASYNC_CONFIG)
    assert result.rounds_completed == ASYNC_CONFIG.rounds
    assert 0.0 < result.history[-1].average_shared_fraction < 1.0


def test_async_message_hook_sees_in_flight_deliveries():
    deliveries = []
    simulator = Simulator(make_toy_task(), full_sharing_factory(), ASYNC_CONFIG)
    simulator.on_message(lambda message, receiver, now: deliveries.append(now))
    simulator.run()
    assert deliveries
    # Delivery timestamps are causally ordered by the event loop.
    assert deliveries == sorted(deliveries)


def test_async_round_end_hook_reports_the_finishing_node():
    finishing_nodes = set()
    simulator = Simulator(make_toy_task(), full_sharing_factory(), ASYNC_CONFIG)
    simulator.on_round_end(lambda round_index, node_id, now: finishing_nodes.add(node_id))
    simulator.run()
    assert finishing_nodes == set(range(ASYNC_CONFIG.num_nodes))


def test_async_supports_dynamic_topology():
    # Historically rejected; the scenario subsystem made rewiring well-defined
    # under gossip (the policy fires on global-round advancement).
    config = replace(ASYNC_CONFIG, dynamic_topology=True)
    result = run_experiment(make_toy_task(), full_sharing_factory(), config)
    assert result.rounds_completed == config.rounds
    assert result.execution == "async"


def test_async_dynamic_topology_is_deterministic():
    config = replace(ASYNC_CONFIG, dynamic_topology=True)
    first = run_experiment(make_toy_task(), full_sharing_factory(), config)
    second = run_experiment(make_toy_task(), full_sharing_factory(), config)
    assert first.to_dict() == second.to_dict()


def test_async_early_stop_at_target():
    config = replace(
        ASYNC_CONFIG,
        rounds=12,
        target_accuracy=0.0,  # any evaluation reaches this immediately
    )
    result = run_experiment(make_toy_task(), full_sharing_factory(), config)
    assert result.reached_target_at_round is not None
    assert result.rounds_completed < config.rounds


def test_homogeneous_async_has_much_smaller_skew_than_stragglers():
    homogeneous = replace(
        ASYNC_CONFIG,
        compute_speed_range=(1.0, 1.0),
        bandwidth_scale_range=(1.0, 1.0),
        link_latency_jitter_seconds=0.0,
    )
    flat = run_experiment(make_toy_task(), full_sharing_factory(), homogeneous)
    skewed = run_experiment(make_toy_task(), full_sharing_factory(), ASYNC_CONFIG)
    # Residual skew in a homogeneous cluster comes only from per-node payload
    # compression differences — orders of magnitude below straggler skew.
    assert flat.clock_skew_seconds < 0.01 * flat.simulated_time_seconds
    assert flat.clock_skew_seconds < 0.1 * skewed.clock_skew_seconds
