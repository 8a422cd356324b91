"""SimulationSnapshot identity, persistence and integrity tests."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import struct

import numpy as np
import pytest

from repro.checkpoint import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    CheckpointManager,
    SimulationSnapshot,
)
from repro.baselines import choco_factory
from repro.checkpoint import snapshot as snapshot_module
from repro.core import jwins_factory
from repro.exceptions import CheckpointError, ExperimentPaused
from repro.simulation import ExperimentConfig
from repro.simulation.engine import Simulator
from tests.conftest import make_toy_task, rewrite_header, stored_form


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


@pytest.mark.parametrize("execution", ["sync", "async"])
@pytest.mark.parametrize("engine", ["pernode", "arena"])
@pytest.mark.parametrize("factory", [jwins_factory, choco_factory], ids=["jwins", "choco"])
def test_a_captured_snapshot_does_not_follow_the_run_on(factory, engine, execution):
    """State dicts hand over live arrays (scheme, scores, meter); capture copies them."""

    captured = []
    simulator = Simulator(
        make_toy_task(),
        factory(),
        small_config(engine=engine, execution=execution),
        checkpoint_every=1,
        checkpoint_sink=lambda snapshot: captured.append((snapshot, stored_form(snapshot))),
    )
    simulator.run()
    assert len(captured) == 4
    for snapshot, form in captured:
        assert stored_form(snapshot) == form


def test_content_hash_changes_with_state():
    early = pause_at(small_config(), 1)
    late = pause_at(small_config(), 2)
    assert early.content_hash() != late.content_hash()


def test_save_load(tmp_path):
    snapshot = pause_at(small_config(), 2)
    path = tmp_path / "run.ckpt"
    assert snapshot.save(path) == path
    loaded = SimulationSnapshot.load(path)
    assert loaded.content_hash() == snapshot.content_hash()
    assert loaded.rounds_completed == 2
    assert loaded.execution == "sync"
    assert loaded.spec_hash() is None  # engine-level run, no spec embedded


@pytest.mark.parametrize("execution", ["sync", "async"])
def test_save_load_round_trip_resaves_the_same_bytes(tmp_path, execution):
    snapshot = pause_at(small_config(execution=execution), 2)
    loaded = SimulationSnapshot.load(snapshot.save(tmp_path / "run.ckpt"))
    # ``loaded.content_hash()`` is the digest the load verified, so it cannot
    # tell a wrong decode: compare what was decoded, and what it saves as.
    assert stored_form(loaded) == stored_form(snapshot)
    resaved = loaded.save(tmp_path / "again.ckpt")
    assert resaved.read_bytes() == (tmp_path / "run.ckpt").read_bytes()
    # The hash is a function of the content, not of how the snapshot was made.
    rebuilt = dataclasses.replace(loaded)  # a new value, its hash not yet known
    assert rebuilt.content_hash() == snapshot.content_hash()


def test_a_loaded_snapshot_views_the_file_and_a_restore_copies(tmp_path):
    snapshot = pause_at(small_config(), 2)
    loaded = SimulationSnapshot.load(snapshot.save(tmp_path / "run.ckpt"))
    params = loaded.nodes[0]["params"]
    assert isinstance(params, np.ndarray) and not params.flags.writeable
    before = params.tobytes()
    resumed = Simulator(make_toy_task(), jwins_factory(), small_config(), resume_from=loaded).run()
    assert params.tobytes() == before  # the resumed run trained on its own copy
    assert resumed.rounds_completed == 4


def test_the_file_is_magic_header_blobs_and_trailer(tmp_path):
    snapshot = pause_at(small_config(), 2)
    data = snapshot.save(tmp_path / "run.ckpt").read_bytes()
    magic, version, header_length = struct.unpack_from("<24sQQ", data)
    assert magic.rstrip(b"\0") == SNAPSHOT_FORMAT.encode() and version == SNAPSHOT_VERSION
    total, digest = struct.unpack_from("<Q32s", data, len(data) - 40)
    assert total == len(data) and len(data) % 8 == 0
    assert digest == hashlib.sha256(data[40:-40]).digest()
    assert digest.hex() == snapshot.content_hash()
    header = json.loads(data[40 : 40 + header_length])
    reference = header["nodes"][0]["params"]
    assert reference == {"__blob__": reference["__blob__"], "dtype": "<f8", "shape": [snapshot.model_size]}
    assert snapshot.nodes[0]["params"].tobytes() in data  # arrays travel raw


def test_saving_hashes_the_snapshot_once(tmp_path, monkeypatch):
    snapshot = pause_at(small_config(), 2)
    calls = []
    real = snapshot_module.hashlib.sha256

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(snapshot_module.hashlib, "sha256", counting)
    manager = CheckpointManager(tmp_path)
    path = manager.save(snapshot, "key")
    assert len(calls) == 1
    (entry,) = [json.loads(line) for line in manager.lineage_path.read_text().splitlines()]
    assert entry["snapshot_hash"] == snapshot.content_hash() == real(
        path.read_bytes()[40:-40]
    ).hexdigest()
    assert len(calls) == 1  # the lineage row reused the hash of the write


def test_load_rejects_missing_file(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read"):
        SimulationSnapshot.load(tmp_path / "absent.ckpt")


def test_load_rejects_bytes_that_are_not_a_checkpoint(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("not json at all")
    with pytest.raises(CheckpointError, match="not a jwins-repro checkpoint"):
        SimulationSnapshot.load(path)


def test_load_rejects_foreign_document(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"hello": "world"}))
    with pytest.raises(CheckpointError, match="not a jwins-repro checkpoint"):
        SimulationSnapshot.load(path)


def test_load_rejects_tampered_payload(tmp_path):
    snapshot = pause_at(small_config(), 2)
    path = tmp_path / "run.ckpt"
    data = snapshot.save(path).read_bytes()
    assert b'"rounds_completed":2' in data
    path.write_bytes(data.replace(b'"rounds_completed":2', b'"rounds_completed":9', 1))
    with pytest.raises(CheckpointError, match="integrity check"):
        SimulationSnapshot.load(path)


@pytest.mark.parametrize("where", ["header", "blob", "last-blob-byte"])
def test_load_rejects_a_flipped_bit(tmp_path, where):
    snapshot = pause_at(small_config(), 2)
    path = tmp_path / "run.ckpt"
    data = bytearray(snapshot.save(path).read_bytes())
    header_length = struct.unpack_from("<Q", data, 32)[0]
    position = {
        "header": 40 + header_length // 2,
        "blob": 40 + header_length + 64,
        "last-blob-byte": len(data) - 41,
    }[where]
    data[position] ^= 0x10
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="failed its integrity check"):
        SimulationSnapshot.load(path)


@pytest.mark.parametrize("keep", [0, 10, 39, 40, 80, -41, -1], ids=lambda k: f"keep{k}")
def test_load_rejects_a_truncated_file(tmp_path, keep):
    snapshot = pause_at(small_config(), 2)
    path = tmp_path / "run.ckpt"
    data = snapshot.save(path).read_bytes()
    path.write_bytes(data[:keep])
    with pytest.raises(CheckpointError, match="is torn"):
        SimulationSnapshot.load(path)


def test_load_rejects_appended_bytes(tmp_path):
    snapshot = pause_at(small_config(), 2)
    path = tmp_path / "run.ckpt"
    path.write_bytes(snapshot.save(path).read_bytes() + bytes(8))
    with pytest.raises(CheckpointError, match="is torn"):
        SimulationSnapshot.load(path)


def test_a_torn_file_is_refused_before_any_hashing(tmp_path, monkeypatch):
    snapshot = pause_at(small_config(), 2)
    path = tmp_path / "run.ckpt"
    data = snapshot.save(path).read_bytes()
    path.write_bytes(data[: len(data) // 2])

    def no_hashing(*args):
        raise AssertionError("a torn file was hashed")

    monkeypatch.setattr(snapshot_module.hashlib, "sha256", no_hashing)
    with pytest.raises(CheckpointError, match="is torn"):
        SimulationSnapshot.load(path)


@pytest.mark.parametrize(
    "version",
    [1, 2, 3, 4],
    ids=["pre-codec-epoch", "pre-coefficient-epoch", "pre-stateless-sgd-epoch", "json-epoch"],
)
def test_load_rejects_a_json_era_version(tmp_path, version):
    """Version 1 files hold the old float codec's byte counts, version 2 files
    JWINS state without ``F_start``, version 3 files an optimizer entry per
    node and the removed config fields, version 4 files one JSON document:
    none may resume, and each is refused by its number."""

    snapshot = pause_at(small_config(), 2)
    path = tmp_path / "run.ckpt.json"
    header, _ = stored_form(snapshot)
    document = {
        "format": SNAPSHOT_FORMAT,
        "version": version,
        "hash": snapshot.content_hash(),
        "snapshot": {**json.loads(header), "profiler": None, "version": version},
    }
    path.write_text(json.dumps(document, sort_keys=True) + "\n")
    with pytest.raises(CheckpointError, match=f"schema version {version};"):
        SimulationSnapshot.load(path)


def test_load_rejects_a_future_version(tmp_path):
    snapshot = pause_at(small_config(), 2)
    path = tmp_path / "run.ckpt"
    data = bytearray(snapshot.save(path).read_bytes())
    struct.pack_into("<Q", data, 24, 999)
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="schema version 999;"):
        SimulationSnapshot.load(path)


def test_load_rejects_unknown_fields(tmp_path):
    path = pause_at(small_config(), 2).save(tmp_path / "run.ckpt")
    rewrite_header(path, lambda header: header.update(mystery=1))
    with pytest.raises(CheckpointError, match="unknown snapshot field"):
        SimulationSnapshot.load(path)


def test_load_rejects_the_removed_profiler_field(tmp_path):
    path = pause_at(small_config(), 2).save(tmp_path / "run.ckpt")
    rewrite_header(path, lambda header: header.update(profiler=None))
    with pytest.raises(CheckpointError, match="unknown snapshot field.*profiler"):
        SimulationSnapshot.load(path)


def test_load_rejects_missing_fields(tmp_path):
    path = pause_at(small_config(), 2).save(tmp_path / "run.ckpt")
    rewrite_header(path, lambda header: header.pop("nodes"))
    with pytest.raises(CheckpointError, match="missing field.*nodes"):
        SimulationSnapshot.load(path)


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
