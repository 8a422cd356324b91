"""The status heartbeat: atomic, live, and invisible to the determinism contract.

Four layers:

* the :class:`CellStatusWriter` unit behaviour (throttling, forced lifecycle
  writes, rounds/sec + ETA arithmetic) under an injected clock;
* the :class:`StatusBoard` bookkeeping (register/skip/done/pause, live-cell
  overlay, terminal finalize);
* a real 2-worker ``run_sweep`` polled mid-flight: every observed
  ``status.json`` must parse (atomic replace, never a torn read) and the
  final document must be terminal with every cell done;
* the contract pin: stored rows are byte-identical with status + metrics +
  trace all enabled vs all disabled.
"""

from __future__ import annotations

import io
import json
import threading
from pathlib import Path

import pytest

from repro.checkpoint import CheckpointManager
from repro.observability.metrics import MetricsRegistry
from repro.observability.status import (
    STATUS_FILENAME,
    CellStatusWriter,
    StatusBoard,
    load_status,
    render_status,
    watch_status,
)
from repro.orchestration.pool import run_sweep
from repro.orchestration.schemes import SchemeSpec
from repro.orchestration.spec import ExperimentSpec
from repro.orchestration.store import ResultStore
from repro.orchestration.sweep import Sweep

TINY = {"num_nodes": 4, "degree": 2, "rounds": 2, "eval_every": 1, "eval_test_samples": 32}


class ManualClock:
    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now


class TickingClock(ManualClock):
    """Advances one second per read."""

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def _sweep() -> Sweep:
    return Sweep(
        name="statusy",
        workloads=("movielens",),
        schemes=(SchemeSpec("jwins"), SchemeSpec("full-sharing")),
        base_overrides=TINY,
    )


def _cell_doc(writer: CellStatusWriter) -> dict:
    return json.loads(writer.path.read_text(encoding="utf-8"))


# -- CellStatusWriter ---------------------------------------------------------------
def test_writer_throttles_round_writes_but_forces_lifecycle(tmp_path):
    clock = ManualClock()
    writer = CellStatusWriter(
        tmp_path, "a" * 64, total_rounds=10, wall_clock=clock, min_interval=0.5
    )
    writer.start()
    assert _cell_doc(writer)["state"] == "running"
    assert _cell_doc(writer)["rounds_completed"] == 0

    writer.on_round(1)  # same instant: throttled, file unchanged
    assert _cell_doc(writer)["rounds_completed"] == 0

    clock.now += 1.0
    writer.on_round(2)  # past the throttle: lands
    document = _cell_doc(writer)
    assert document["rounds_completed"] == 2
    assert document["rounds_per_sec"] == 2.0  # 2 rounds / 1 elapsed second
    assert document["eta_seconds"] == 4.0  # 8 remaining / 2 per sec

    writer.on_checkpoint(3)  # same instant, but checkpoints always write
    document = _cell_doc(writer)
    assert document["last_checkpoint_round"] == 3
    assert document["rounds_completed"] == 3


def test_resumed_cell_rate_counts_only_the_rounds_this_process_ran(tmp_path):
    spec = ExperimentSpec(
        "movielens", SchemeSpec("jwins"), overrides={**TINY, "rounds": 8, "seed": 1}
    )
    manager = CheckpointManager(tmp_path / "ckpt")
    spec.run(checkpoint_dir=manager.directory, checkpoint_every=6)
    snapshot = manager.load_for_spec(spec)
    assert snapshot.rounds_completed == 6

    writer = CellStatusWriter(
        tmp_path / "status", spec.content_hash(), total_rounds=8,
        wall_clock=TickingClock(), min_interval=0.0,
    ).start()  # start at t=1, its write at t=2
    spec.run(snapshot=snapshot, heartbeat=writer)  # rounds 7 and 8 write at t=3, 4
    document = _cell_doc(writer)
    assert document["rounds_completed"] == 8
    assert document["rounds_per_sec"] == pytest.approx(2 / 3)  # not 8 / 3

    # Mid-run, the ETA extrapolates from the same rate.
    clock = ManualClock()
    writer = CellStatusWriter(tmp_path, "c" * 64, total_rounds=8, wall_clock=clock)
    writer.start()
    writer.on_run_start(6)
    clock.now += 2.0
    writer.on_round(7)
    document = _cell_doc(writer)
    assert document["rounds_per_sec"] == 0.5
    assert document["eta_seconds"] == 2.0


def test_writer_embeds_a_metrics_snapshot(tmp_path):
    registry = MetricsRegistry()
    registry.counter("c").inc(5)
    writer = CellStatusWriter(tmp_path, "b" * 64, registry=registry)
    writer.start()
    assert "c" in _cell_doc(writer)["metrics"]


# -- StatusBoard --------------------------------------------------------------------
def test_board_lifecycle_counts_and_terminal_states(tmp_path):
    clock = ManualClock()
    board = StatusBoard(tmp_path, sweep_name="s", workers=2, wall_clock=clock)
    board.register_cells([("k1", "cell-one", 4), ("k2", "cell-two", 4)])
    document = load_status(tmp_path)
    assert document["state"] == "running"
    assert document["counts"]["pending"] == 2

    board.mark_skipped("k1")
    heartbeat = CellStatusWriter(tmp_path, "k2", wall_clock=clock).start()
    clock.now += 1.0
    heartbeat.on_round(3)
    board.refresh()
    document = load_status(tmp_path)
    assert document["counts"]["skipped"] == 1
    assert document["cells"]["k2"]["state"] == "running"
    assert document["cells"]["k2"]["rounds_completed"] == 3
    assert document["cells"]["k2"]["label"] == "cell-two"  # board label wins

    board.mark_done("k2", 4)
    assert not heartbeat.path.exists()  # live file consumed on the verdict
    board.finalize("done")
    document = load_status(tmp_path)
    assert document["state"] == "done"
    assert {cell["state"] for cell in document["cells"].values()} == {"skipped", "done"}


def test_finalize_interrupted_flips_running_cells_to_paused(tmp_path):
    board = StatusBoard(tmp_path)
    board.register_cells([("k1", "one", 4)])
    CellStatusWriter(tmp_path, "k1").start()
    board.refresh()
    assert load_status(tmp_path)["cells"]["k1"]["state"] == "running"
    board.finalize("interrupted")
    document = load_status(tmp_path)
    assert document["state"] == "interrupted"
    assert document["cells"]["k1"]["state"] == "paused"


def test_board_merges_live_cell_metrics(tmp_path):
    board = StatusBoard(tmp_path)
    board.register_cells([("k1", "one", 2)])
    done = MetricsRegistry()
    done.counter("c").inc(2)
    board.merge_metrics(done)
    live = MetricsRegistry()
    live.counter("c").inc(3)
    CellStatusWriter(tmp_path, "k1", registry=live).start()
    board.refresh()
    document = load_status(tmp_path)
    assert document["metrics"]["c"]["value"] == 5  # finished + live, merged


def test_load_status_reads_a_directory_an_empty_directory_and_a_file(tmp_path, monkeypatch):
    """No ``is_dir()`` probe: a poller may see the directory appear mid-call."""

    status_dir = tmp_path / "status"
    StatusBoard(status_dir, sweep_name="demo").refresh()
    (tmp_path / "empty").mkdir()
    # The race, frozen: any probe answers as it would have before the mkdir.
    monkeypatch.setattr(Path, "is_dir", lambda self: False)
    assert load_status(status_dir)["sweep"] == "demo"
    assert load_status(status_dir / STATUS_FILENAME) == load_status(status_dir)
    with pytest.raises(FileNotFoundError):  # created, not yet written: ``top`` waits
        load_status(tmp_path / "empty")
    with pytest.raises(FileNotFoundError):
        load_status(tmp_path / "absent")


# -- mid-flight atomicity over a real pool sweep ------------------------------------
def test_status_json_is_always_parsable_during_a_pool_sweep(tmp_path):
    status_dir = tmp_path / "status"
    stop = threading.Event()
    observed: list[dict] = []
    torn: list[Exception] = []

    def poll() -> None:
        while not stop.is_set():
            try:
                observed.append(load_status(status_dir))
            except FileNotFoundError:
                pass  # before the first write
            except json.JSONDecodeError as error:  # pragma: no cover - the bug
                torn.append(error)

    poller = threading.Thread(target=poll, daemon=True)
    poller.start()
    try:
        run_sweep(
            _sweep(),
            ResultStore(tmp_path / "store.jsonl"),
            workers=2,
            status_dir=status_dir,
        )
    finally:
        stop.set()
        poller.join(timeout=10.0)
    assert not torn, f"torn status.json reads: {torn}"
    assert observed, "the poller never saw a status document"
    final = load_status(status_dir)
    assert final["state"] == "done"
    assert len(final["cells"]) == 2
    assert all(cell["state"] == "done" for cell in final["cells"].values())
    assert final["counts"]["done"] == 2


def test_sweep_skip_path_reports_skipped_cells(tmp_path):
    store = ResultStore(tmp_path / "store.jsonl")
    run_sweep(_sweep(), store)
    run_sweep(_sweep(), store, status_dir=tmp_path / "status")
    document = load_status(tmp_path / "status")
    assert document["state"] == "done"
    assert all(cell["state"] == "skipped" for cell in document["cells"].values())


# -- the contract pin ---------------------------------------------------------------
def test_store_rows_byte_identical_with_full_telemetry_and_status(tmp_path):
    bare_store = tmp_path / "bare.jsonl"
    instrumented_store = tmp_path / "full.jsonl"
    run_sweep(_sweep(), ResultStore(bare_store))
    run_sweep(
        _sweep(),
        ResultStore(instrumented_store),
        metrics=MetricsRegistry(),
        trace_dir=tmp_path / "traces",
        status_dir=tmp_path / "status",
    )
    assert bare_store.read_bytes() == instrumented_store.read_bytes()
    assert (tmp_path / "status" / "status.json").exists()


# -- read side ----------------------------------------------------------------------
def test_render_and_watch_once(tmp_path):
    board = StatusBoard(tmp_path, sweep_name="render-me", workers=1)
    board.register_cells([("k1", "my-cell", 3)])
    board.mark_done("k1", 3)
    board.finalize("done")
    frame = render_status(load_status(tmp_path))
    assert "sweep=render-me" in frame and "state=done" in frame
    assert "my-cell" in frame and "3/3" in frame

    stream = io.StringIO()
    assert watch_status(tmp_path, once=True, stream=stream) == 0
    assert "state=done" in stream.getvalue()

    missing = io.StringIO()
    assert watch_status(tmp_path / "absent", once=True, stream=missing) == 1
    assert "no status document" in missing.getvalue()
