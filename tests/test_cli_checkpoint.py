"""CLI coverage for the checkpoint subsystem: run/sweep flags, fork, store.

Every failure path must exit through a clean ``SystemExit`` message, matching
the CLI contract — never a traceback.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.checkpoint import CheckpointManager, SimulationSnapshot, preemption
from repro.cli import main
from repro.orchestration import ResultStore

RUN_ARGS = [
    "run",
    "--workload",
    "movielens",
    "--scheme",
    "jwins",
    "--nodes",
    "4",
    "--degree",
    "2",
    "--rounds",
    "4",
    "--seed",
    "3",
]

SWEEP_ARGS = [
    "sweep",
    "--workload",
    "movielens",
    "--scheme",
    "jwins",
    "full-sharing",
    "--nodes",
    "4",
    "--degree",
    "2",
    "--rounds",
    "2",
]


@pytest.fixture(autouse=True)
def clean_preemption():
    preemption.reset()
    yield
    preemption.reset()


def checkpoint_args(tmp_path, every: int = 1) -> list[str]:
    return ["--checkpoint-every", str(every), "--checkpoint-dir", str(tmp_path / "ck")]


def only_snapshot(tmp_path):
    (path,) = (tmp_path / "ck").glob("*.ckpt")
    return path


# -- run ------------------------------------------------------------------------------
def test_run_with_checkpointing_matches_plain_run(tmp_path, capsys):
    assert main(RUN_ARGS) == 0
    plain = capsys.readouterr().out
    assert main(RUN_ARGS + checkpoint_args(tmp_path)) == 0
    checkpointed = capsys.readouterr().out
    # The summary table (accuracy, bytes, simulated time) must be identical.
    assert plain.splitlines()[-3:] == checkpointed.splitlines()[-3:]
    assert only_snapshot(tmp_path).exists()


def test_run_resume_from_final_snapshot(tmp_path, capsys):
    assert main(RUN_ARGS + checkpoint_args(tmp_path, every=2)) == 0
    reference = capsys.readouterr().out
    snapshot_path = only_snapshot(tmp_path)
    assert (
        main(RUN_ARGS + ["--resume-from", str(snapshot_path)]) == 0
    )
    resumed = capsys.readouterr().out
    assert reference.splitlines()[-3:] == resumed.splitlines()[-3:]


def test_run_paused_by_preemption_exits_130(tmp_path, capsys, pause_after_round):
    pause_after_round(2)
    exit_code = main(RUN_ARGS + checkpoint_args(tmp_path))
    output = capsys.readouterr().out
    assert exit_code == 130
    assert "paused jwins at round 2" in output
    assert "--resume-from" in output
    # Resume completes and matches the uninterrupted run.
    pause_after_round(None)
    assert main(RUN_ARGS + ["--resume-from", str(only_snapshot(tmp_path))]) == 0
    resumed = capsys.readouterr().out
    assert main(RUN_ARGS) == 0
    plain = capsys.readouterr().out
    assert resumed.splitlines()[-3:] == plain.splitlines()[-3:]


@pytest.mark.parametrize("with_dir", [False, True], ids=["no-dir", "into-dir"])
@pytest.mark.parametrize("command", ["run", "fork"])
def test_run_installs_the_sigint_pause_only_with_a_checkpoint_dir(
    tmp_path, capsys, monkeypatch, command, with_dir
):
    """A pause needs a directory to save into: a bare ``--resume-from`` (or a
    ``fork`` without ``--checkpoint-dir``) keeps Ctrl-C a KeyboardInterrupt
    instead of printing a pause it cannot keep."""

    assert main(RUN_ARGS + checkpoint_args(tmp_path, every=2)) == 0
    snapshot_path = str(only_snapshot(tmp_path))
    installs = []
    monkeypatch.setattr(
        preemption, "install_preemption_handler", lambda: installs.append(True)
    )
    invocation = {
        "run": RUN_ARGS + ["--resume-from", snapshot_path],
        "fork": ["fork", "--snapshot", snapshot_path, "--rounds", "6"],
    }[command]
    extra = ["--checkpoint-dir", str(tmp_path / "ck")] if with_dir else []
    assert main(invocation + extra) == 0
    capsys.readouterr()
    assert installs == [True] * with_dir


def test_run_checkpoint_every_requires_dir():
    with pytest.raises(SystemExit, match="--checkpoint-dir"):
        main(RUN_ARGS + ["--checkpoint-every", "2"])


def test_run_negative_checkpoint_every_rejected():
    with pytest.raises(SystemExit, match="non-negative"):
        main(RUN_ARGS + ["--checkpoint-every", "-1"])


def test_run_resume_from_missing_file_exits_cleanly(tmp_path):
    with pytest.raises(SystemExit, match="cannot read snapshot"):
        main(RUN_ARGS + ["--resume-from", str(tmp_path / "absent.ckpt")])


def test_run_resume_from_corrupt_file_exits_cleanly(tmp_path):
    path = tmp_path / "broken.ckpt"
    path.write_text("{ not json")
    with pytest.raises(SystemExit, match="not a jwins-repro checkpoint"):
        main(RUN_ARGS + ["--resume-from", str(path)])


def test_run_resume_from_tampered_snapshot_exits_cleanly(tmp_path):
    assert main(RUN_ARGS + checkpoint_args(tmp_path, every=2)) == 0
    path = only_snapshot(tmp_path)
    data = path.read_bytes()
    tampered = re.sub(rb'"rounds_completed":[02-9]', b'"rounds_completed":1', data, count=1)
    assert tampered != data
    path.write_bytes(tampered)
    with pytest.raises(SystemExit, match="integrity check"):
        main(RUN_ARGS + ["--resume-from", str(path)])


@pytest.mark.parametrize("command", ["run", "fork"])
def test_a_truncated_snapshot_exits_with_the_refusal(tmp_path, command):
    assert main(RUN_ARGS + checkpoint_args(tmp_path, every=2)) == 0
    path = only_snapshot(tmp_path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    invocation = {
        "run": RUN_ARGS + ["--resume-from", str(path)],
        "fork": ["fork", "--snapshot", str(path)],
    }[command]
    with pytest.raises(SystemExit, match="is torn"):
        main(invocation)


def test_a_json_era_snapshot_exits_with_its_version(tmp_path):
    path = tmp_path / "old.ckpt.json"
    path.write_text(json.dumps({"format": "jwins-repro-checkpoint", "version": 4, "snapshot": {}}))
    with pytest.raises(SystemExit, match="schema version 4; this build reads version 5"):
        main(["fork", "--snapshot", str(path)])


def test_run_resume_from_mismatched_spec_exits_cleanly(tmp_path):
    assert main(RUN_ARGS + checkpoint_args(tmp_path, every=2)) == 0
    path = only_snapshot(tmp_path)
    mismatched = [arg if arg != "3" else "4" for arg in RUN_ARGS]  # other seed
    with pytest.raises(SystemExit, match="does not match this invocation"):
        main(mismatched + ["--resume-from", str(path)])


def test_run_resume_from_requires_single_scheme(tmp_path):
    with pytest.raises(SystemExit, match="exactly one"):
        main(
            RUN_ARGS[:3]
            + ["--scheme", "jwins", "full-sharing", "--resume-from", str(tmp_path / "x")]
        )


# -- sweep ----------------------------------------------------------------------------
def test_sweep_dry_run_prints_hashes_and_touches_nothing(tmp_path, capsys):
    store = tmp_path / "store.jsonl"
    exit_code = main(SWEEP_ARGS + ["--store", str(store), "--dry-run"])
    output = capsys.readouterr().out
    assert exit_code == 0
    assert not store.exists()
    lines = [line for line in output.splitlines() if "movielens/" in line]
    assert len(lines) == 2
    for line in lines:
        digest = line.split()[0]
        assert len(digest) == 64 and int(digest, 16) >= 0
        assert "seed=" in line
    assert "2 cell(s), 2 unique" in output


def test_sweep_dry_run_marks_duplicates(capsys):
    exit_code = main(
        SWEEP_ARGS + ["--seeds", "5", "5", "--dry-run", "--store", "ignored.jsonl"]
    )
    output = capsys.readouterr().out
    assert exit_code == 0
    assert "(duplicate: executes once)" in output
    assert "4 cell(s), 2 unique" in output


def test_sweep_preempted_resumes_to_identical_store(tmp_path, capsys, pause_after_round):
    reference = tmp_path / "reference.jsonl"
    assert main(SWEEP_ARGS + ["--store", str(reference)]) == 0
    capsys.readouterr()

    interrupted = tmp_path / "interrupted.jsonl"
    sweep_ck = SWEEP_ARGS + [
        "--store",
        str(interrupted),
        "--checkpoint-dir",
        str(tmp_path / "ck"),
    ]
    pause_after_round(1)
    assert main(sweep_ck) == 130
    assert "sweep interrupted" in capsys.readouterr().out
    pause_after_round(None)
    assert main(sweep_ck) == 0
    capsys.readouterr()
    assert reference.read_bytes() == interrupted.read_bytes()


def test_sweep_negative_checkpoint_every_rejected(tmp_path):
    with pytest.raises(SystemExit, match="non-negative"):
        main(SWEEP_ARGS + ["--store", str(tmp_path / "s"), "--checkpoint-every", "-2"])


# -- fork -----------------------------------------------------------------------------
@pytest.fixture
def snapshot_path(tmp_path, pause_after_round) -> str:
    """The snapshot of a ``run`` paused at round 2."""

    pause_after_round(2)
    assert main(RUN_ARGS + checkpoint_args(tmp_path)) == 130
    pause_after_round(None)
    return str(only_snapshot(tmp_path))


def test_fork_unchanged_and_with_scenario(tmp_path, capsys, snapshot_path):
    capsys.readouterr()
    store = tmp_path / "forks.jsonl"

    assert main(["fork", "--snapshot", snapshot_path, "--store", str(store)]) == 0
    first = capsys.readouterr().out
    assert "forked movielens/jwins from round 2" in first

    assert (
        main(
            [
                "fork",
                "--snapshot",
                snapshot_path,
                "--scenario",
                "churn",
                "--store",
                str(store),
            ]
        )
        == 0
    )
    capsys.readouterr()
    reloaded = ResultStore(store)
    assert len(reloaded) == 2  # unchanged and scenario forks are hash-distinct
    for line in open(store, encoding="utf-8").read().splitlines():
        assert json.loads(line)["spec"]["lineage"] is not None


def test_fork_trace_into_a_directory_uses_the_forked_hash(tmp_path, capsys, snapshot_path):
    trace_dir = tmp_path / "traces"
    trace_dir.mkdir()
    capsys.readouterr()
    assert main(["fork", "--snapshot", snapshot_path, "--trace", str(trace_dir)]) == 0
    output = capsys.readouterr().out
    traces = list(trace_dir.glob("*.trace.jsonl"))
    assert len(traces) == 1
    assert f"trace written to {traces[0]}" in output
    lines = traces[0].read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[0])["kind"] == "manifest"
    assert json.loads(lines[-1])["kind"] == "run_end"


def test_fork_missing_snapshot_exits_cleanly(tmp_path):
    with pytest.raises(SystemExit, match="cannot read snapshot"):
        main(["fork", "--snapshot", str(tmp_path / "absent.json")])


def test_fork_structural_mutation_exits_cleanly(snapshot_path):
    with pytest.raises(SystemExit, match="structural"):
        main(["fork", "--snapshot", snapshot_path, "--set", "num_nodes=8"])


def test_fork_exhausted_rounds_exits_cleanly(snapshot_path):
    with pytest.raises(SystemExit, match="cannot fork"):
        main(["fork", "--snapshot", snapshot_path, "--rounds", "1"])


# -- store ----------------------------------------------------------------------------
def test_store_compact_drops_superseded_and_corrupt_rows(tmp_path, capsys):
    store_path = tmp_path / "store.jsonl"
    assert main(SWEEP_ARGS + ["--store", str(store_path)]) == 0
    assert main(SWEEP_ARGS + ["--store", str(store_path), "--force"]) == 0
    with store_path.open("a") as handle:
        handle.write('{"truncated": \n')
    capsys.readouterr()

    before = ResultStore(store_path)
    results_before = {key: before.get(key).to_dict() for key in before._records}

    assert main(["store", "compact", "--store", str(store_path)]) == 0
    output = capsys.readouterr().out
    assert "5 line(s) -> 2 row(s)" in output
    assert "dropped 2 superseded, 1 corrupt" in output

    after = ResultStore(store_path)
    assert {key: after.get(key).to_dict() for key in after._records} == results_before
    assert len(store_path.read_text().splitlines()) == 2
    # Compacting an already-compact store is a no-op.
    assert main(["store", "compact", "--store", str(store_path)]) == 0
    assert "2 line(s) -> 2 row(s)" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["absent.jsonl", "."])
def test_store_compact_missing_file_exits_cleanly(tmp_path, name):
    with pytest.raises(SystemExit, match="does not exist"):
        main(["store", "compact", "--store", str(tmp_path / name)])


def test_cli_snapshot_embeds_its_spec_hash(snapshot_path):
    snapshot = SimulationSnapshot.load(snapshot_path)
    assert snapshot.rounds_completed == 2
    assert snapshot.spec_hash() is not None
    assert snapshot.execution == "sync"
