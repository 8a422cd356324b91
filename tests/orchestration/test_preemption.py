"""Preemptible sweeps: checkpoint on interrupt, resume mid-spec, same bytes.

The store produced by an interrupted-then-resumed sweep must be byte-for-byte
identical to an uninterrupted run's — including under pool execution, where
each worker checkpoints its own in-flight cell.
"""

from __future__ import annotations

import json

import pytest

from repro.checkpoint import CheckpointManager, preemption
from repro.exceptions import CheckpointError
from repro.orchestration import ExperimentSpec, ResultStore, SchemeSpec, run_sweep
from repro.orchestration.pool import SweepObserver


def _lineage(manager: CheckpointManager) -> list[dict]:
    """The rows of a checkpoint directory's append-only lineage log."""

    return [json.loads(line) for line in manager.lineage_path.read_text().splitlines()]

OVERRIDES = {
    "num_nodes": 4,
    "degree": 2,
    "rounds": 4,
    "eval_every": 2,
    "eval_test_samples": 32,
}


def make_specs() -> list[ExperimentSpec]:
    return [
        ExperimentSpec("movielens", SchemeSpec("jwins", {}, label="jwins"), OVERRIDES),
        ExperimentSpec(
            "movielens", SchemeSpec("full-sharing", {}, label="full-sharing"), OVERRIDES
        ),
    ]


@pytest.fixture(autouse=True)
def clean_preemption():
    preemption.reset()
    yield
    preemption.reset()


def store_bytes(path) -> bytes:
    return path.read_bytes()


def test_serial_preempt_and_resume_store_is_byte_identical(tmp_path, pause_after_round):
    reference = tmp_path / "reference.jsonl"
    run_sweep(make_specs(), ResultStore(reference))

    interrupted = tmp_path / "interrupted.jsonl"
    checkpoints = tmp_path / "checkpoints"

    class Recorder(SweepObserver):
        pauses: list = []
        starts: list = []

        def on_start(self, spec):
            self.starts.append(spec.label)

        def on_pause(self, spec, rounds_completed):
            self.pauses.append((spec.label, rounds_completed))

    pause_after_round(2)
    outcome = run_sweep(
        make_specs(),
        ResultStore(interrupted),
        observer=Recorder(),
        checkpoint_dir=str(checkpoints),
        checkpoint_every=1,
    )
    assert outcome.interrupted
    assert [spec.label for spec in outcome.paused] == ["movielens/jwins"]
    assert outcome.executed == []
    assert Recorder.pauses == [("movielens/jwins", 2)]
    assert Recorder.starts == ["movielens/jwins"]  # nothing starts after a pause

    # The second invocation resumes the paused cell mid-spec and runs the
    # untouched one.
    pause_after_round(None)
    resumed = run_sweep(
        make_specs(), ResultStore(interrupted), checkpoint_dir=str(checkpoints)
    )
    assert not resumed.interrupted
    assert len(resumed.executed) == 2
    assert store_bytes(reference) == store_bytes(interrupted)


def test_pool_checkpointed_sweep_matches_serial(tmp_path):
    """Checkpoint-enabled pool execution stays byte-identical to serial."""

    serial = tmp_path / "serial.jsonl"
    pooled = tmp_path / "pooled.jsonl"
    run_sweep(make_specs(), ResultStore(serial))
    outcome = run_sweep(
        make_specs(),
        ResultStore(pooled),
        workers=2,
        checkpoint_dir=str(tmp_path / "ck"),
        checkpoint_every=1,
    )
    assert not outcome.interrupted and len(outcome.executed) == 2
    assert store_bytes(serial) == store_bytes(pooled)


def test_mid_spec_resume_consumes_the_snapshot(tmp_path, pause_after_round):
    """The paused cell restarts from its snapshot, not from round zero."""

    checkpoints = tmp_path / "checkpoints"
    spec = make_specs()[0]

    pause_after_round(2)
    run_sweep(
        [spec], ResultStore(), checkpoint_dir=str(checkpoints), checkpoint_every=1
    )
    manager = CheckpointManager(checkpoints)
    snapshot = manager.load_for_spec(spec)
    assert snapshot is not None and snapshot.rounds_completed == 2

    pause_after_round(None)
    outcome = run_sweep([spec], ResultStore(), checkpoint_dir=str(checkpoints))
    assert len(outcome.executed) == 1
    # The resume lineage row proves the mid-spec restart.
    actions = [row["action"] for row in _lineage(manager)]
    assert "resume" in actions
    resume_rows = [row for row in _lineage(manager) if row["action"] == "resume"]
    assert resume_rows[-1]["round"] == 2


def test_lineage_log_records_saves_and_resumes(tmp_path, pause_after_round):
    checkpoints = tmp_path / "checkpoints"
    spec = make_specs()[0]
    pause_after_round(2)
    run_sweep(
        [spec], ResultStore(), checkpoint_dir=str(checkpoints), checkpoint_every=1
    )
    pause_after_round(None)
    run_sweep([spec], ResultStore(), checkpoint_dir=str(checkpoints))

    rows = _lineage(CheckpointManager(checkpoints))
    assert [row["action"] for row in rows].count("resume") == 1
    save_rounds = [row["round"] for row in rows if row["action"] == "save"]
    assert save_rounds == sorted(save_rounds)
    assert all(row["key"] == spec.content_hash() for row in rows)


def test_lineage_stays_out_of_the_store(tmp_path, pause_after_round):
    """Store rows carry no checkpoint provenance — that is what keeps the
    interrupted-and-resumed store byte-identical to the uninterrupted one."""

    checkpoints = tmp_path / "checkpoints"
    store_path = tmp_path / "store.jsonl"
    spec = make_specs()[0]
    pause_after_round(2)
    run_sweep(
        [spec],
        ResultStore(store_path),
        checkpoint_dir=str(checkpoints),
        checkpoint_every=1,
    )
    pause_after_round(None)
    run_sweep([spec], ResultStore(store_path), checkpoint_dir=str(checkpoints))
    with store_path.open() as handle:
        rows = [json.loads(line) for line in handle if line.strip()]
    assert len(rows) == 1
    assert set(rows[0]) == {"key", "spec", "result"}


def test_spec_run_refuses_a_foreign_snapshot(tmp_path, pause_after_round):
    checkpoints = tmp_path / "checkpoints"
    specs = make_specs()
    pause_after_round(2)
    run_sweep(
        [specs[0]], ResultStore(), checkpoint_dir=str(checkpoints), checkpoint_every=1
    )
    pause_after_round(None)
    snapshot = CheckpointManager(checkpoints).load_for_spec(specs[0])
    with pytest.raises(CheckpointError, match="refusing to resume"):
        specs[1].run(snapshot=snapshot)


def test_manager_detects_misfiled_snapshot(tmp_path, pause_after_round):
    checkpoints = tmp_path / "checkpoints"
    specs = make_specs()
    pause_after_round(2)
    run_sweep(
        [specs[0]], ResultStore(), checkpoint_dir=str(checkpoints), checkpoint_every=1
    )
    pause_after_round(None)
    manager = CheckpointManager(checkpoints)
    # File the snapshot under the wrong spec's key, as a rename/tamper would.
    manager.path_for(specs[0].content_hash()).rename(
        manager.path_for(specs[1].content_hash())
    )
    with pytest.raises(CheckpointError, match="does not belong"):
        manager.load_for_spec(specs[1])
