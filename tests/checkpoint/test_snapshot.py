"""SimulationSnapshot identity, persistence and integrity tests."""

from __future__ import annotations

import json

import pytest

from repro.checkpoint import SimulationSnapshot
from repro.core import jwins_factory
from repro.exceptions import CheckpointError, ExperimentPaused
from repro.simulation import ExperimentConfig
from repro.simulation.engine import Simulator
from tests.conftest import make_toy_task


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        num_nodes=4,
        degree=2,
        rounds=4,
        local_steps=1,
        batch_size=8,
        learning_rate=0.1,
        eval_every=2,
        eval_test_samples=32,
        seed=3,
        partition="shards",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def pause_at(config: ExperimentConfig, rounds: int) -> SimulationSnapshot:
    """Run a fresh toy simulation, pausing after ``rounds`` completed rounds."""

    simulator = Simulator(make_toy_task(), jwins_factory(), config)
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


def test_to_dict_from_dict_is_exact():
    snapshot = pause_at(small_config(), 2)
    payload = json.loads(json.dumps(snapshot.to_dict(), sort_keys=True))
    clone = SimulationSnapshot.from_dict(payload)
    assert clone.to_dict() == snapshot.to_dict()
    assert clone.content_hash() == snapshot.content_hash()


def test_content_hash_changes_with_state():
    early = pause_at(small_config(), 1)
    late = pause_at(small_config(), 2)
    assert early.content_hash() != late.content_hash()


def test_save_load(tmp_path):
    snapshot = pause_at(small_config(), 2)
    path = tmp_path / "run.ckpt.json"
    snapshot.save(path)
    loaded = SimulationSnapshot.load(path)
    assert loaded.content_hash() == snapshot.content_hash()
    assert loaded.rounds_completed == 2
    assert loaded.execution == "sync"
    assert loaded.spec_hash() is None  # engine-level run, no spec embedded


def test_load_rejects_missing_file(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read"):
        SimulationSnapshot.load(tmp_path / "absent.ckpt.json")


def test_load_rejects_non_json(tmp_path):
    path = tmp_path / "bad.ckpt.json"
    path.write_text("not json at all")
    with pytest.raises(CheckpointError, match="not valid JSON"):
        SimulationSnapshot.load(path)


def test_load_rejects_foreign_document(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"hello": "world"}))
    with pytest.raises(CheckpointError, match="not a jwins-repro checkpoint"):
        SimulationSnapshot.load(path)


def test_load_rejects_tampered_payload(tmp_path):
    snapshot = pause_at(small_config(), 2)
    path = tmp_path / "run.ckpt.json"
    snapshot.save(path)
    document = json.loads(path.read_text())
    document["snapshot"]["rounds_completed"] = 99
    path.write_text(json.dumps(document))
    with pytest.raises(CheckpointError, match="integrity check"):
        SimulationSnapshot.load(path)


@pytest.mark.parametrize(
    "version",
    [1, 2, 3, 999],
    ids=["pre-codec-epoch", "pre-coefficient-epoch", "pre-stateless-sgd-epoch", "future"],
)
def test_load_rejects_wrong_version(tmp_path, version):
    """Version 1 files hold the old float codec's byte counts, version 2 files
    JWINS state without ``F_start``, version 3 files an optimizer entry per
    node and the removed config fields: none may resume."""

    snapshot = pause_at(small_config(), 2)
    path = tmp_path / "run.ckpt.json"
    snapshot.save(path)
    document = json.loads(path.read_text())
    document["version"] = version
    path.write_text(json.dumps(document))
    with pytest.raises(CheckpointError, match=f"schema version {version};"):
        SimulationSnapshot.load(path)


def test_from_dict_rejects_unknown_fields():
    snapshot = pause_at(small_config(), 2)
    payload = snapshot.to_dict()
    payload["mystery"] = 1
    with pytest.raises(CheckpointError, match="unknown snapshot field"):
        SimulationSnapshot.from_dict(payload)


def test_from_dict_rejects_missing_fields():
    with pytest.raises(CheckpointError, match="missing field"):
        SimulationSnapshot.from_dict({"execution": "sync"})


def test_restore_rejects_wrong_execution_mode():
    snapshot = pause_at(small_config(), 2)
    simulator = Simulator(
        make_toy_task(), jwins_factory(), small_config(execution="async")
    )
    with pytest.raises(CheckpointError, match="execution mode"):
        Simulator(
            make_toy_task(),
            jwins_factory(),
            small_config(execution="async"),
            resume_from=snapshot,
        )
    del simulator


def test_restore_rejects_wrong_node_count():
    snapshot = pause_at(small_config(), 2)
    with pytest.raises(CheckpointError, match="nodes"):
        Simulator(
            make_toy_task(),
            jwins_factory(),
            small_config(num_nodes=6),
            resume_from=snapshot,
        )


def test_restore_rejects_exhausted_round_budget():
    snapshot = pause_at(small_config(), 3)
    with pytest.raises(CheckpointError, match="completed"):
        Simulator(
            make_toy_task(),
            jwins_factory(),
            small_config(rounds=2),
            resume_from=snapshot,
        )
