"""The fourth determinism pillar: interrupt + resume is byte-identical.

Both execution modes, with and without an active scenario schedule, with
cadence snapshots and with explicit stop requests — in every case the resumed
:class:`~repro.simulation.metrics.ExperimentResult` must serialize to exactly
the bytes the uninterrupted run produces.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.baselines import choco_factory
from repro.checkpoint import CheckpointManager, capture_snapshot
from repro.core import jwins_factory
from repro.exceptions import ExperimentPaused
from repro.scenarios import get_scenario
from repro.scenarios.schedule import BYZANTINE_MODES, ByzantineWindow, ScenarioSchedule
from repro.simulation import (
    ExperimentConfig,
    run_experiment,
)
from repro.simulation.engine import Simulator
from repro.topology.graphs import Topology
from repro.topology.weights import metropolis_hastings_rows
from tests.conftest import make_toy_task, through_file

ROUNDS = 6


def build_config(execution: str, scenario: bool) -> ExperimentConfig:
    overrides = dict(
        num_nodes=6,
        degree=2,
        rounds=ROUNDS,
        local_steps=1,
        batch_size=8,
        learning_rate=0.1,
        eval_every=2,
        eval_test_samples=48,
        seed=3,
        partition="shards",
        execution=execution,
        message_drop_probability=0.1,
    )
    if execution == "async":
        overrides.update(
            compute_speed_range=(1.0, 2.0), link_latency_jitter_seconds=0.01
        )
    if scenario:
        overrides["scenario"] = get_scenario("churn-partition", num_nodes=6, rounds=ROUNDS)
    return ExperimentConfig(**overrides)


def pause_at(config: ExperimentConfig, rounds: int, factory=jwins_factory):
    simulator = Simulator(make_toy_task(), factory(), config)
    simulator.on_round_end(
        lambda r, n, now: (
            simulator.request_checkpoint_stop()
            if simulator.result.rounds_completed >= rounds
            else None
        )
    )
    with pytest.raises(ExperimentPaused) as info:
        simulator.run()
    return info.value.snapshot


@pytest.mark.parametrize("execution", ["sync", "async"])
@pytest.mark.parametrize("scenario", [False, True])
def test_interrupt_resume_is_byte_identical(execution, scenario):
    config = build_config(execution, scenario)
    uninterrupted = run_experiment(make_toy_task(), jwins_factory(), config)

    snapshot = pause_at(config, 3)
    assert snapshot.rounds_completed == 3
    resumed = run_experiment(
        make_toy_task(), jwins_factory(), config, resume_from=through_file(snapshot)
    )
    assert json.dumps(resumed.to_dict(), sort_keys=True) == json.dumps(
        uninterrupted.to_dict(), sort_keys=True
    )


@pytest.mark.parametrize("execution", ["sync", "async"])
def test_interrupt_resume_under_per_round_rewiring(execution):
    """``rewire_every=1``: the resumed run mixes over the snapshot's graph.

    The restore rebuilds the mixing rows from the restored topology, not
    from the one a fresh build starts with.
    """

    config = replace(
        build_config(execution, scenario=False),
        scenario=get_scenario("dynamic", num_nodes=6, rounds=ROUNDS),
    )
    uninterrupted = run_experiment(make_toy_task(), jwins_factory(), config)

    snapshot = through_file(pause_at(config, 3))
    restored = Topology(
        num_nodes=6, edges=tuple((u, v) for u, v in snapshot.topology["edges"])
    )
    assert restored != Simulator(make_toy_task(), jwins_factory(), config).topology
    resumed = Simulator(make_toy_task(), jwins_factory(), config, resume_from=snapshot)
    assert resumed.topology == restored
    assert resumed.mixing == metropolis_hastings_rows(restored)
    assert json.dumps(resumed.run().to_dict(), sort_keys=True) == json.dumps(
        uninterrupted.to_dict(), sort_keys=True
    )


@pytest.mark.parametrize("execution", ["sync", "async"])
def test_interrupt_resume_choco(execution):
    """CHOCO's cross-round correction state survives the pause exactly."""

    config = build_config(execution, scenario=False)
    uninterrupted = run_experiment(make_toy_task(), choco_factory(), config)
    snapshot = pause_at(config, 3, factory=choco_factory)
    resumed = run_experiment(
        make_toy_task(), choco_factory(), config, resume_from=through_file(snapshot)
    )
    assert resumed.to_dict() == uninterrupted.to_dict()


def test_round_zero_snapshot_resumes_full_run():
    """Edge: a snapshot taken before any round ran (sync, nothing in flight)."""

    config = build_config("sync", scenario=False)
    uninterrupted = run_experiment(make_toy_task(), jwins_factory(), config)

    simulator = Simulator(make_toy_task(), jwins_factory(), config)
    snapshot = capture_snapshot(simulator, {"kind": "sync", "clock": 0.0})
    assert snapshot.rounds_completed == 0
    resumed = run_experiment(
        make_toy_task(), jwins_factory(), config, resume_from=through_file(snapshot)
    )
    assert resumed.to_dict() == uninterrupted.to_dict()


@pytest.mark.parametrize("execution", ["sync", "async"])
def test_final_round_snapshot_yields_complete_result(execution):
    """Edge: a snapshot taken at the very last round resumes to the full result."""

    config = build_config(execution, scenario=False)
    uninterrupted = run_experiment(make_toy_task(), jwins_factory(), config)

    snapshots = []
    checkpointed = run_experiment(
        make_toy_task(),
        jwins_factory(),
        config,
        checkpoint_every=ROUNDS,
        checkpoint_sink=snapshots.append,
    )
    assert checkpointed.to_dict() == uninterrupted.to_dict()
    assert snapshots[-1].rounds_completed == ROUNDS
    resumed = run_experiment(
        make_toy_task(), jwins_factory(), config, resume_from=through_file(snapshots[-1])
    )
    assert resumed.to_dict() == uninterrupted.to_dict()


def test_async_snapshot_captures_in_flight_messages():
    """A mid-gossip snapshot holds queued deliveries and live contexts."""

    config = build_config("async", scenario=False)
    snapshot = pause_at(config, 2)
    kinds = [
        event["__event__"]["kind"] for event in snapshot.mode_state["loop"]["events"]
    ]
    assert kinds, "the paused gossip queue should not be empty"
    # There is always at least one node mid-round when the global minimum
    # advances: either a live context or an undelivered message must exist.
    has_context = any(c is not None for c in snapshot.mode_state["contexts"])
    has_delivery = "deliver-message" in kinds
    assert has_context or has_delivery


def test_sync_snapshot_has_no_in_flight_state():
    """Edge: the sync barrier leaves nothing in flight at a boundary."""

    config = build_config("sync", scenario=False)
    snapshot = pause_at(config, 2)
    assert snapshot.mode_state == {
        "kind": "sync",
        "clock": snapshot.mode_state["clock"],
    }


def test_cadence_checkpoints_do_not_change_results(tmp_path):
    """checkpoint_every=k produces identical results and k-boundary snapshots."""

    config = build_config("sync", scenario=False)
    plain = run_experiment(make_toy_task(), jwins_factory(), config)

    manager = CheckpointManager(tmp_path)
    seen_rounds = []
    checkpointed = run_experiment(
        make_toy_task(),
        jwins_factory(),
        config,
        checkpoint_every=2,
        checkpoint_sink=lambda snap: seen_rounds.append(snap.rounds_completed)
        or manager.save(snap, "toy"),
    )
    assert checkpointed.to_dict() == plain.to_dict()
    assert seen_rounds == [2, 4, 6]

    # The latest (final) snapshot resumes straight to the complete result.
    resumed = run_experiment(
        make_toy_task(), jwins_factory(), config, resume_from=manager.load("toy")
    )
    assert resumed.to_dict() == plain.to_dict()


def _byzantine_config(execution: str, mode: str) -> ExperimentConfig:
    """build_config, but under a byzantine window that straddles the pause."""

    schedule = ScenarioSchedule(
        name=f"byz-{mode}",
        byzantine=(
            ByzantineWindow(start_round=1, end_round=5, nodes=(4, 5), mode=mode),
        ),
    )
    overrides = dict(
        num_nodes=6,
        degree=2,
        rounds=ROUNDS,
        local_steps=1,
        batch_size=8,
        learning_rate=0.1,
        eval_every=2,
        eval_test_samples=48,
        seed=3,
        partition="shards",
        execution=execution,
        message_drop_probability=0.1,
        scenario=schedule,
    )
    if execution == "async":
        overrides.update(
            compute_speed_range=(1.0, 2.0), link_latency_jitter_seconds=0.01
        )
    return ExperimentConfig(**overrides)


@pytest.mark.parametrize("execution", ["sync", "async"])
@pytest.mark.parametrize("mode", sorted(BYZANTINE_MODES))
def test_interrupt_resume_under_byzantine_window(execution, mode):
    """Pausing *inside* an attack window resumes byte-for-byte.

    The stale-replay variant is the sharp edge: the frozen replay models live
    in ``Simulator._byzantine_stale`` and must survive the snapshot's JSON
    round trip, or the resumed attacker replays a different model.
    """

    config = _byzantine_config(execution, mode)
    uninterrupted = run_experiment(make_toy_task(), jwins_factory(), config)

    snapshot = pause_at(config, 3)  # round 3 is mid-window ([1, 5))
    if mode == "stale-replay":
        # The held replay models are part of the snapshot, keyed by node.
        assert [entry[0] for entry in snapshot.byzantine] == [4, 5]
    else:
        assert snapshot.byzantine == []

    resumed = run_experiment(
        make_toy_task(), jwins_factory(), config, resume_from=through_file(snapshot)
    )
    assert json.dumps(resumed.to_dict(), sort_keys=True) == json.dumps(
        uninterrupted.to_dict(), sort_keys=True
    )


def test_byzantine_run_differs_from_honest_run():
    """Sanity: the attack window actually changes the learning dynamics."""

    honest = run_experiment(
        make_toy_task(), jwins_factory(), build_config("sync", scenario=False)
    )
    attacked = run_experiment(
        make_toy_task(), jwins_factory(), _byzantine_config("sync", "sign-flip")
    )
    assert honest.history != attacked.history


def test_resume_after_early_target_stop():
    """A target-accuracy stop interacts correctly with a pause before the stop."""

    config = ExperimentConfig(
        num_nodes=4,
        degree=2,
        rounds=ROUNDS,
        local_steps=1,
        batch_size=8,
        learning_rate=0.1,
        eval_every=1,
        eval_test_samples=32,
        seed=3,
        partition="shards",
        # The toy run evaluates to ~34% after round 1 and ~42% after round 2
        # (deterministic for this seed): the target fires strictly after the
        # pause point below, exercising the pause-then-early-stop path.
        target_accuracy=0.40,
    )
    uninterrupted = run_experiment(make_toy_task(), jwins_factory(), config)
    assert uninterrupted.reached_target_at_round == 2
    snapshot = pause_at(config, 1)
    resumed = run_experiment(
        make_toy_task(), jwins_factory(), config, resume_from=through_file(snapshot)
    )
    assert resumed.to_dict() == uninterrupted.to_dict()
