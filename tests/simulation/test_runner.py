"""Tests for the round scheduler / experiment runner."""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import full_sharing_factory, random_sampling_factory
from repro.core import JwinsConfig, jwins_factory
from repro.simulation import Simulator
from repro.simulation.runner import _Heartbeat, build_nodes, run_experiment
from tests.conftest import make_toy_task


def test_a_heartbeat_leaves_a_finished_run_to_reference_counting(toy_task, small_config):
    """Without the cyclic collector, a finished run's deployment is freed at once."""

    class Beat:
        def on_round(self, rounds_completed):
            self.rounds = rounds_completed

        def on_checkpoint(self, rounds_completed):
            pass

    beat = Beat()
    simulator = Simulator(toy_task, full_sharing_factory(), small_config)
    simulator.add_observer(_Heartbeat(simulator, beat))
    simulator.run()
    assert beat.rounds == small_config.rounds
    finished = weakref.ref(simulator)
    gc.disable()
    try:
        del simulator
        assert finished() is None
    finally:
        gc.enable()


def test_build_nodes_all_start_from_same_model(toy_task, small_config):
    nodes = build_nodes(toy_task, full_sharing_factory(), small_config)
    assert len(nodes) == small_config.num_nodes
    reference = nodes[0].get_parameters()
    for node in nodes[1:]:
        assert np.allclose(node.get_parameters(), reference)


def test_build_nodes_partitions_are_disjoint_and_cover_data(toy_task, small_config):
    nodes = build_nodes(toy_task, full_sharing_factory(), small_config)
    total = sum(len(node.dataset) for node in nodes)
    assert total == len(toy_task.train)


def test_run_experiment_produces_history_and_bytes(toy_task, small_config):
    result = run_experiment(toy_task, full_sharing_factory(), small_config)
    assert result.rounds_completed == small_config.rounds
    assert len(result.history) == small_config.rounds // small_config.eval_every
    assert result.total_bytes > 0
    assert result.simulated_time_seconds > 0
    assert result.scheme == "full-sharing"
    assert result.task == "toy"


def test_run_experiment_is_deterministic(toy_task, small_config):
    a = run_experiment(toy_task, full_sharing_factory(), small_config)
    b = run_experiment(toy_task, full_sharing_factory(), small_config)
    assert a.final_accuracy == b.final_accuracy
    assert a.total_bytes == b.total_bytes
    assert [r.test_loss for r in a.history] == [r.test_loss for r in b.history]


def test_different_seeds_differ(toy_task, small_config):
    a = run_experiment(toy_task, full_sharing_factory(), small_config)
    b = run_experiment(toy_task, full_sharing_factory(), replace(small_config, seed=99))
    assert a.total_bytes != b.total_bytes or a.final_accuracy != b.final_accuracy


def test_sparse_scheme_sends_fewer_bytes_than_full_sharing(toy_task, small_config):
    full = run_experiment(toy_task, full_sharing_factory(), small_config)
    sparse = run_experiment(toy_task, random_sampling_factory(0.2), small_config)
    assert sparse.total_bytes < full.total_bytes


def test_jwins_runs_and_records_shared_fraction(toy_task, small_config):
    result = run_experiment(
        toy_task, jwins_factory(JwinsConfig.paper_default()), small_config, scheme_name="jwins"
    )
    assert result.scheme == "jwins"
    fractions = [record.average_shared_fraction for record in result.history]
    assert all(0.0 < fraction <= 1.0 for fraction in fractions)
    assert result.total_metadata_bytes > 0


def test_learning_improves_accuracy(toy_task):
    config = make_learning_config()
    result = run_experiment(toy_task, full_sharing_factory(), config)
    assert result.history[0].test_accuracy < result.final_accuracy
    assert result.final_accuracy > 0.5


def make_learning_config():
    from repro.simulation.experiment import ExperimentConfig

    return ExperimentConfig(
        num_nodes=4,
        degree=2,
        rounds=12,
        local_steps=3,
        batch_size=8,
        learning_rate=0.2,
        eval_every=3,
        eval_test_samples=64,
        seed=5,
        partition="shards",
    )


def test_target_accuracy_early_stop(toy_task):
    config = replace(make_learning_config(), target_accuracy=0.4)
    result = run_experiment(toy_task, full_sharing_factory(), config)
    assert result.reached_target_at_round is not None
    assert result.rounds_completed <= config.rounds


def test_dynamic_topology_runs(toy_task, small_config):
    from dataclasses import replace

    dynamic_config = replace(small_config, dynamic_topology=True)
    result = run_experiment(toy_task, full_sharing_factory(), dynamic_config)
    assert result.rounds_completed == dynamic_config.rounds
