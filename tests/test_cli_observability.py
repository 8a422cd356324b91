"""CLI coverage for the observability surface: trace diff, summarize-dir,
``top``, and the ``--status`` heartbeat flags.

Same contract as the rest of the CLI suite: failure paths exit through a clean
``SystemExit`` message, success paths return 0 — except ``trace diff``, whose
exit code *is* the verdict (0 identical, 1 divergent), mirroring ``cmp``.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

import pytest

import repro.cli as cli
from repro.checkpoint import preemption
from repro.cli import main
from repro.orchestration import run_sweep
from repro.observability.status import load_status
from repro.observability.trace import read_trace, strip_wall

RUN_ARGS = [
    "run",
    "--workload", "movielens",
    "--scheme", "jwins",
    "--nodes", "4", "--degree", "2", "--rounds", "2", "--seed", "3",
]

SWEEP_ARGS = [
    "sweep",
    "--workload", "movielens",
    "--scheme", "jwins", "full-sharing",
    "--nodes", "4", "--degree", "2", "--rounds", "2",
]


@pytest.fixture(autouse=True)
def clean_preemption():
    preemption.reset()
    yield
    preemption.reset()


def _traced_sweep(tmp_path, name: str) -> Path:
    trace_dir = tmp_path / name
    store = tmp_path / f"{name}.jsonl"
    assert main([*SWEEP_ARGS, "--store", str(store), "--trace", str(trace_dir)]) == 0
    return trace_dir


def _tampered_copy(trace_path: Path, out_path: Path) -> None:
    """Rewrite one evaluate record's loss: a minimal synthetic divergence."""

    lines = trace_path.read_text(encoding="utf-8").splitlines()
    for index, line in enumerate(lines):
        record = json.loads(line)
        if record.get("kind") == "evaluate":
            record["loss"] += 1e-3
            lines[index] = json.dumps(record, sort_keys=True)
            break
    else:  # pragma: no cover - trace always evaluates
        raise AssertionError("no evaluate record to tamper with")
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- trace diff -----------------------------------------------------------------------
def test_trace_diff_identical_runs_exit_zero(tmp_path, capsys):
    dir_a = _traced_sweep(tmp_path, "a")
    dir_b = _traced_sweep(tmp_path, "b")
    names = sorted(path.name for path in dir_a.glob("*.trace.jsonl"))
    assert names == sorted(path.name for path in dir_b.glob("*.trace.jsonl"))
    capsys.readouterr()
    assert main(["trace", "diff", str(dir_a / names[0]), str(dir_b / names[0])]) == 0
    assert "IDENTICAL" in capsys.readouterr().out


def test_trace_diff_divergence_exits_one_with_forensics(tmp_path, capsys):
    dir_a = _traced_sweep(tmp_path, "a")
    original = next(iter(sorted(dir_a.glob("*.trace.jsonl"))))
    tampered = tmp_path / "tampered.trace.jsonl"
    _tampered_copy(original, tampered)
    capsys.readouterr()
    assert main(["trace", "diff", str(original), str(tampered)]) == 1
    output = capsys.readouterr().out
    assert "first divergent record" in output
    assert "field 'loss'" in output
    assert "origin:" in output


def test_trace_diff_json_output_is_machine_readable(tmp_path, capsys):
    dir_a = _traced_sweep(tmp_path, "a")
    original = next(iter(sorted(dir_a.glob("*.trace.jsonl"))))
    tampered = tmp_path / "tampered.trace.jsonl"
    _tampered_copy(original, tampered)
    capsys.readouterr()
    assert main(["trace", "diff", "--json", str(original), str(tampered)]) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["identical"] is False
    assert document["kind"] == "evaluate"
    assert any(drift["field"] == "loss" for drift in document["drifts"])


def test_trace_diff_missing_operands_exit_cleanly(tmp_path):
    present = tmp_path / "x.trace.jsonl"
    present.write_text('{"kind": "manifest", "seq": 0}\n', encoding="utf-8")
    with pytest.raises(SystemExit, match="two traces"):
        main(["trace", "diff", str(present)])
    with pytest.raises(SystemExit, match="does not exist"):
        main(["trace", "diff", str(present), str(tmp_path / "absent.jsonl")])


# -- trace summarize on a sweep directory ---------------------------------------------
def test_trace_summarize_accepts_a_sweep_directory(tmp_path, capsys):
    trace_dir = _traced_sweep(tmp_path, "a")
    capsys.readouterr()
    assert main(["trace", "summarize", str(trace_dir)]) == 0
    output = capsys.readouterr().out
    assert "2 cell trace(s)" in output
    assert "totals:" in output
    assert "jwins" in output and "full-sharing" in output


def test_trace_summarize_refuses_a_file_of_two_runs(tmp_path):
    path = tmp_path / "two-runs.trace.jsonl"
    path.write_text(
        '{"kind": "manifest", "seq": 0}\n{"kind": "manifest", "seq": 1}\n', encoding="utf-8"
    )
    for target in (path, tmp_path):  # the file, and a directory holding it
        with pytest.raises(SystemExit, match="second 'manifest' record"):
            main(["trace", "summarize", str(target)])


def test_trace_summarize_rejects_two_paths(tmp_path):
    trace_dir = _traced_sweep(tmp_path, "a")
    with pytest.raises(SystemExit, match="single path"):
        main(["trace", "summarize", str(trace_dir), str(trace_dir)])


def test_trace_summarize_rejects_json(tmp_path):
    trace_dir = _traced_sweep(tmp_path, "a")
    with pytest.raises(SystemExit, match="--json applies to trace diff only"):
        main(["trace", "summarize", str(trace_dir), "--json"])


# -- one road: `run` is a run_sweep call with or without checkpoint flags --------------
def test_run_prints_and_traces_the_same_with_or_without_checkpoint_dir(tmp_path, capsys):
    outputs, traces = [], []
    for name, extra in (("plain", []), ("ckpt", ["--checkpoint-dir", str(tmp_path / "ck")])):
        trace_dir = tmp_path / name
        assert main([*RUN_ARGS, "--trace", str(trace_dir), *extra]) == 0
        outputs.append(capsys.readouterr().out.replace(str(trace_dir), "TRACE"))
        [trace] = trace_dir.glob("*.trace.jsonl")
        traces.append(trace)
    assert outputs[0] == outputs[1]
    assert traces[0].name == traces[1].name
    assert strip_wall(traces[0]) == strip_wall(traces[1])
    manifest = read_trace(traces[0])[0]
    assert manifest["kind"] == "manifest" and len(manifest["spec_hash"]) == 64


def test_run_trace_dir_holds_the_sweep_cell_trace_of_the_same_spec(tmp_path, capsys, monkeypatch):
    """`run --trace DIR` and `sweep --trace DIR` share one layout: the cell's
    `<spec hash>.trace.jsonl`, equal once wall fields are stripped."""

    swept = []

    def recording_run_sweep(sweep, *args, **options):
        swept.append(sweep)
        return run_sweep(sweep, *args, **options)

    monkeypatch.setattr(cli, "run_sweep", recording_run_sweep)
    assert main([*RUN_ARGS, "--trace", str(tmp_path / "run")]) == 0
    [sweep] = swept
    [spec] = sweep.expand()
    monkeypatch.setattr(cli, "_build_adhoc_sweep", lambda args, scale: sweep)
    store = tmp_path / "store.jsonl"
    assert main([*SWEEP_ARGS, "--store", str(store), "--trace", str(tmp_path / "sweep")]) == 0
    capsys.readouterr()
    name = f"{spec.content_hash()}.trace.jsonl"
    assert [path.name for path in (tmp_path / "run").iterdir()] == [name]
    assert [path.name for path in (tmp_path / "sweep").iterdir()] == [name]
    assert strip_wall(tmp_path / "run" / name) == strip_wall(tmp_path / "sweep" / name)


# -- the --status heartbeat -----------------------------------------------------------
def test_sweep_status_flag_leaves_a_terminal_document(tmp_path, capsys):
    status_dir = tmp_path / "status"
    store = tmp_path / "store.jsonl"
    assert main([*SWEEP_ARGS, "--store", str(store), "--status", str(status_dir)]) == 0
    document = load_status(status_dir)
    assert document["state"] == "done"
    assert len(document["cells"]) == 2
    assert all(cell["state"] == "done" for cell in document["cells"].values())
    # Labels carry the sweep axes, not bare hashes.
    assert any("movielens" in cell["label"] for cell in document["cells"].values())


def test_run_status_flag_leaves_a_terminal_document(tmp_path, capsys):
    status_dir = tmp_path / "status"
    assert main([*RUN_ARGS, "--status", str(status_dir)]) == 0
    document = load_status(status_dir)
    assert document["state"] == "done"
    assert all(cell["state"] == "done" for cell in document["cells"].values())


def test_status_flag_does_not_change_stored_bytes(tmp_path, capsys):
    bare = tmp_path / "bare.jsonl"
    monitored = tmp_path / "monitored.jsonl"
    assert main([*SWEEP_ARGS, "--store", str(bare)]) == 0
    assert main(
        [*SWEEP_ARGS, "--store", str(monitored), "--status", str(tmp_path / "status")]
    ) == 0
    assert bare.read_bytes() == monitored.read_bytes()


# -- top ------------------------------------------------------------------------------
def test_top_once_renders_a_finished_sweep(tmp_path, capsys):
    status_dir = tmp_path / "status"
    store = tmp_path / "store.jsonl"
    assert main([*SWEEP_ARGS, "--store", str(store), "--status", str(status_dir)]) == 0
    capsys.readouterr()
    assert main(["top", str(status_dir), "--once"]) == 0
    output = capsys.readouterr().out
    assert "state=done" in output
    assert "cells:" in output


def test_top_once_missing_directory_exits_one(tmp_path, capsys):
    assert main(["top", str(tmp_path / "absent"), "--once"]) == 1
    assert "no status document" in capsys.readouterr().out


def test_top_once_on_a_document_that_is_not_json_exits_one(tmp_path, capsys):
    (tmp_path / "status.json").write_text("not json\n", encoding="utf-8")
    assert main(["top", str(tmp_path), "--once"]) == 1
    (line,) = capsys.readouterr().out.splitlines()
    assert line == f"status document at {tmp_path} is not valid JSON"


@pytest.mark.parametrize(
    "interval", ["-1", "0", "nan", "inf", "1e300", str(threading.TIMEOUT_MAX)]
)
def test_top_refuses_an_interval_out_of_range(tmp_path, interval):
    with pytest.raises(SystemExit, match="--interval must be positive"):
        main(["top", str(tmp_path), "--interval", interval])
