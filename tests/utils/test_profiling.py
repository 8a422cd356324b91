"""Tests for the phase-timer profiler and its engine integration."""

import numpy as np
import pytest

from repro.baselines.full_sharing import full_sharing_factory
from repro.core import jwins_factory
from repro.simulation.engine import Simulator
from repro.simulation.experiment import ExperimentConfig
from repro.simulation.metrics import ExperimentResult
from repro.simulation.runner import run_experiment
from repro.utils.profiling import Profiler, format_profile
from tests.conftest import make_toy_task


class FakeClock:
    """Deterministic clock advancing by a fixed step per reading."""

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def test_profiler_totals_counts_and_rounds():
    profiler = Profiler(clock=FakeClock())
    with profiler.phase("train"):
        pass  # clock advances 1.0 inside
    with profiler.phase("train"):
        pass
    with profiler.phase("encode"):
        pass
    profiler.mark_round(0)
    with profiler.phase("train"):
        pass
    profiler.mark_round(1)

    assert profiler.totals == {"train": 3.0, "encode": 1.0}
    assert profiler.counts == {"train": 3, "encode": 1}
    rows = profiler.round_rows
    assert rows[0] == {"round": 0.0, "train": 2.0, "encode": 1.0}
    assert rows[1] == {"round": 1.0, "train": 1.0}


def test_mark_round_without_activity_adds_no_row():
    profiler = Profiler(clock=FakeClock())
    profiler.mark_round(0)
    assert profiler.round_rows == []


def test_flush_recovers_work_after_last_round_mark():
    profiler = Profiler(clock=FakeClock())
    with profiler.phase("train"):
        pass
    profiler.mark_round(0)
    # The run's closing evaluation lands after the final round boundary; a
    # flush must attribute it to a trailing row instead of dropping it.
    with profiler.phase("evaluate"):
        pass
    profiler.flush(1)
    assert profiler.round_rows == [
        {"round": 0.0, "train": 1.0},
        {"round": 1.0, "evaluate": 1.0},
    ]
    # Flushing again with nothing pending adds no empty row.
    profiler.flush(2)
    assert len(profiler.round_rows) == 2


def _tiny_config(**overrides) -> ExperimentConfig:
    base = dict(
        num_nodes=4, degree=2, rounds=3, local_steps=1, batch_size=4,
        eval_every=2, eval_test_samples=16, seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.mark.parametrize(
    "execution,engine",
    [("sync", "pernode"), ("async", "pernode"), ("sync", "arena"), ("async", "arena")],
    ids=["sync", "async", "sync-arena", "async-arena"],
)
def test_engine_fills_phase_seconds(execution, engine):
    task = make_toy_task(seed=5)
    profiler = Profiler()
    result = run_experiment(
        task,
        jwins_factory(),
        _tiny_config(execution=execution).with_engine(engine),
        profiler=profiler,
    )
    assert set(result.phase_seconds) == {"train", "encode", "aggregate", "evaluate"}
    assert all(seconds >= 0.0 for seconds in result.phase_seconds.values())
    # 3 rounds x 4 nodes.  The event loop times every node's step on its own;
    # a lock-step round times ``encode`` and ``aggregate`` once per stage under
    # either engine (one share path), and ``train`` per row on private models
    # but once per stage on the arena.
    rows, stages = 12, 3
    assert profiler.counts["train"] == (
        stages if (execution, engine) == ("sync", "arena") else rows
    )
    assert profiler.counts["encode"] == (stages if execution == "sync" else rows)
    assert profiler.counts["aggregate"] == (stages if execution == "sync" else rows)
    assert result.round_phase_seconds
    # every phase total equals the sum of its per-round attribution
    for phase, total in result.phase_seconds.items():
        attributed = sum(row.get(phase, 0.0) for row in result.round_phase_seconds)
        assert attributed == pytest.approx(total)


def test_sync_round_rows_attribute_evaluate_to_triggering_round():
    task = make_toy_task(seed=5)
    profiler = Profiler()
    result = run_experiment(
        task,
        full_sharing_factory(),
        _tiny_config(eval_every=1),
        profiler=profiler,
    )
    # One row per round, no phantom trailing row, and with eval_every=1 every
    # row carries the evaluation its own round triggered.
    assert [row["round"] for row in result.round_phase_seconds] == [0.0, 1.0, 2.0]
    assert all("evaluate" in row for row in result.round_phase_seconds)


def test_profiled_run_is_bit_identical_to_unprofiled():
    task = make_toy_task(seed=5)
    plain = run_experiment(task, full_sharing_factory(), _tiny_config())
    profiled = run_experiment(
        task, full_sharing_factory(), _tiny_config(), profiler=Profiler()
    )
    assert plain.history == profiled.history
    assert plain.total_bytes == profiled.total_bytes
    assert plain.simulated_time_seconds == profiled.simulated_time_seconds
    # only the wall-clock fields may differ
    plain_dict, profiled_dict = plain.to_dict(), profiled.to_dict()
    for key in ("phase_seconds", "round_phase_seconds", "memory"):
        plain_dict.pop(key), profiled_dict.pop(key)
    assert plain_dict == profiled_dict


def test_result_serialization_roundtrips_profile_fields():
    import json

    result = ExperimentResult(
        scheme="jwins", task="toy", num_nodes=2, rounds_completed=1,
        phase_seconds={"train": 0.25, "encode": 0.125},
        round_phase_seconds=[{"round": 0.0, "train": 0.25, "encode": 0.125}],
    )
    restored = ExperimentResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert restored == result
    # legacy payloads without the profile keys still load
    legacy = result.to_dict()
    legacy.pop("phase_seconds"), legacy.pop("round_phase_seconds")
    assert ExperimentResult.from_dict(legacy).phase_seconds == {}


def test_format_profile_renders_table():
    text = format_profile({"train": 2.0, "encode": 1.0}, rounds_completed=4,
                          counts={"train": 8, "encode": 8})
    assert "train" in text and "encode" in text
    assert "66.7%" in text and "ms/round" in text and "calls" in text
    assert format_profile({}).startswith("no profile recorded")


def test_simulator_profile_helper_is_noop_without_profiler():
    task = make_toy_task(seed=5)
    simulator = Simulator(task, full_sharing_factory(), _tiny_config())
    with simulator.profile("train"):
        value = np.sum(np.ones(3))
    assert value == 3.0
    assert simulator.profiler is None
