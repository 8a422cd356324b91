"""Unit tests for the JSONL trace emitter and its wall split."""

from __future__ import annotations

import json

import pytest

from repro.baselines import full_sharing_factory
from repro.observability.trace import (
    WALL_KEY,
    TraceEmitter,
    read_trace,
    strip_wall,
    summarize_trace,
)
from repro.simulation import ExperimentConfig, run_experiment
from tests.conftest import make_toy_task


class FixedClock:
    """Injectable wall clock advancing by a fixed step per reading."""

    def __init__(self, start: float = 1000.0, step: float = 1.0) -> None:
        self.now = start
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def test_emitter_writes_sequenced_records_with_wall_section(tmp_path):
    path = tmp_path / "run.trace.jsonl"
    with TraceEmitter(path, wall_clock=FixedClock()) as trace:
        trace.emit("manifest", {"scheme": "jwins", "seed": 1})
        trace.emit("round", {"round": 0, "now": 1.5})
        trace.emit("round", {"round": 1, "now": 3.0}, wall={"extra": "x"})
    records = read_trace(path)
    assert [r["kind"] for r in records] == ["manifest", "round", "round"]
    assert [r["seq"] for r in records] == [0, 1, 2]
    assert records[0]["scheme"] == "jwins"
    assert all(WALL_KEY in r and "unix_time" in r[WALL_KEY] for r in records)
    assert records[2][WALL_KEY]["extra"] == "x"


def test_emitter_creates_parent_directories(tmp_path):
    path = tmp_path / "deep" / "nested" / "run.trace.jsonl"
    with TraceEmitter(path) as trace:
        trace.emit("round", {"round": 0})
    assert path.exists()


def test_lines_are_valid_sorted_key_json(tmp_path):
    path = tmp_path / "run.trace.jsonl"
    with TraceEmitter(path) as trace:
        trace.emit("message", {"sender": 1, "receiver": 0, "bytes": 10})
    (line,) = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(line)
    assert json.dumps(record, sort_keys=True) == line


def test_strip_wall_is_identical_across_different_clocks(tmp_path):
    paths = []
    for index, start in enumerate((100.0, 99999.0)):
        path = tmp_path / f"run{index}.trace.jsonl"
        with TraceEmitter(path, wall_clock=FixedClock(start=start)) as trace:
            trace.emit("manifest", {"scheme": "jwins", "seed": 1})
            trace.emit("round", {"round": 0, "now": 1.5})
        paths.append(path)
    # Raw files differ (the timestamps moved) ...
    assert paths[0].read_bytes() != paths[1].read_bytes()
    # ... the stripped documents do not: the fifth determinism oracle.
    assert strip_wall(paths[0]) == strip_wall(paths[1])
    assert WALL_KEY not in strip_wall(paths[0])


def test_strip_wall_of_empty_trace_is_empty_string(tmp_path):
    path = tmp_path / "empty.trace.jsonl"
    path.write_text("", encoding="utf-8")
    assert strip_wall(path) == ""


def _emit_run(trace: TraceEmitter, scheme: str) -> None:
    trace.emit("manifest", {"scheme": scheme, "seed": 1, "spec_hash": "a" * 64})
    trace.emit("round", {"round": 0, "node": 0, "now": 1.0})
    trace.emit("message", {"sender": 1, "receiver": 0, "bytes": 7, "now": 1.0})
    trace.emit(
        "run_end",
        {"rounds_completed": 1, "total_bytes": 7.0},
        wall={"peak_rss_bytes": 2 * 2**20},
    )


def test_summarize_renders_the_one_run_of_a_file(tmp_path):
    path = tmp_path / "run.trace.jsonl"
    with TraceEmitter(path, wall_clock=FixedClock()) as trace:
        _emit_run(trace, "jwins")
    text = summarize_trace(path)
    assert text.startswith(f"trace: {path}  (4 record(s))")
    assert "run: scheme=jwins seed=1 spec=aaaaaaaaaaaa..." in text
    assert "  records: manifest=1, message=1, round=1, run_end=1" in text
    assert "messages_received" in text
    assert "peak_rss: 2.0 MiB" in text


def test_summarize_refuses_a_second_manifest(tmp_path):
    path = tmp_path / "two-runs.trace.jsonl"
    with TraceEmitter(path, wall_clock=FixedClock()) as trace:
        _emit_run(trace, "jwins")
        _emit_run(trace, "full-sharing")
    with pytest.raises(ValueError, match=r"second 'manifest' record \(seq 4\)"):
        summarize_trace(path)


def test_emit_after_close_raises_and_keeps_the_file(tmp_path):
    path = tmp_path / "run.trace.jsonl"
    trace = TraceEmitter(path, wall_clock=FixedClock())
    trace.emit("manifest", {"scheme": "jwins"})
    trace.close()
    with pytest.raises(ValueError, match="closed"):
        trace.emit("round", {"round": 0})
    assert [record["kind"] for record in read_trace(path)] == ["manifest"]


def test_summarize_empty_trace(tmp_path):
    path = tmp_path / "empty.trace.jsonl"
    path.write_text("", encoding="utf-8")
    assert "is empty" in summarize_trace(path)


@pytest.mark.parametrize("execution", ["sync", "async"])
def test_summarize_counts_node_rounds_only_where_round_records_name_a_node(tmp_path, execution):
    # Lock-step round records are global ("node": null); the event loop's
    # name the node whose local round ended.
    path = tmp_path / f"{execution}.trace.jsonl"
    config = ExperimentConfig(
        num_nodes=4, degree=2, rounds=3, local_steps=1, batch_size=8, learning_rate=0.1,
        eval_every=3, eval_test_samples=32, seed=1, execution=execution,
    )
    with TraceEmitter(path) as trace:
        run_experiment(make_toy_task(), full_sharing_factory(), config, observers=(trace,))
    lines = summarize_trace(path).splitlines()
    assert "  rounds_completed=3 total_bytes=" in "\n".join(lines)
    start = lines.index("  per-node:")
    header = lines[start + 1].split()
    rows = [line.split() for line in lines[start + 2 : start + 6]]
    assert [int(row[0]) for row in rows] == [0, 1, 2, 3]
    if execution == "sync":
        assert header == ["node", "messages_received", "bytes_received"]
    else:
        assert header == ["node", "rounds", "messages_received", "bytes_received"]
        assert [int(row[1]) for row in rows] == [3, 3, 3, 3]
