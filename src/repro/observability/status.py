"""Live sweep status: an atomically rewritten ``status.json`` heartbeat.

Long sweeps (10k-node arena runs, fuzz campaigns) were black boxes until
they finished.  This module makes them watchable without touching the
determinism contract:

* a :class:`CellStatusWriter` is the per-cell heartbeat — attached to the
  engine's ``on_round_end`` hook (via the ``heartbeat`` parameter threaded
  through ``run_experiment``/``ExperimentSpec.run``), it atomically rewrites
  one small JSON file per cell with the current round, rounds/sec, ETA, the
  worker pid and the last checkpoint round.  Workers write these files
  directly, so progress is visible from *inside* a multiprocessing pool;
* a :class:`StatusBoard` is the per-sweep aggregator — it owns the cell
  bookkeeping (pending/running/done/skipped/paused/failed), folds live cell
  heartbeats and their metrics snapshots into one merged view, and
  atomically rewrites ``status.json`` via a temp file + :func:`os.replace`
  so a concurrent reader (``jwins-repro top``) never observes a torn write;
* :func:`load_status` / :func:`render_status` / :func:`watch_status` are the
  read side behind ``jwins-repro top <dir>``.

Everything here is **wall-only telemetry**: heartbeats are written from
observer hooks that fire regardless, no RNG is consulted, and stored result
rows are byte-identical with status reporting on or off (pinned by tests).
This module lives in ``repro.observability`` and is therefore sanctioned to
read the wall clock (DET002 exemption).
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.observability.metrics import MetricsRegistry

__all__ = [
    "CellStatusWriter",
    "StatusBoard",
    "load_status",
    "render_status",
    "watch_status",
]

#: The heartbeat document a sweep rewrites (inside the ``--status`` directory).
STATUS_FILENAME = "status.json"

#: Subdirectory holding one live heartbeat file per in-flight cell.
CELLS_DIRNAME = "cells"

#: Document schema version (bump on incompatible layout changes).
STATUS_VERSION = 1

#: Cell states a status document may report.
CELL_STATES = ("pending", "running", "done", "skipped", "paused", "failed")

#: Default minimum seconds between two throttled heartbeat writes.
DEFAULT_MIN_INTERVAL = 0.2


def _atomic_write_json(path: Path, document: Mapping[str, Any]) -> None:
    """Write ``document`` to ``path`` atomically (temp file + ``os.replace``).

    Concurrent readers see either the previous complete document or the new
    one, never a torn write; the temp name embeds the pid so sweep workers
    writing side by side into one directory cannot collide.
    """

    payload = json.dumps(document, sort_keys=True, indent=2) + "\n"
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(payload, encoding="utf-8")
    os.replace(tmp, path)


class CellStatusWriter:
    """The per-cell heartbeat: one atomically rewritten JSON file per cell.

    Duck-typed as the engine-facing ``heartbeat`` object: the runner calls
    :meth:`on_run_start` from the ``on_run_start`` observer hook,
    :meth:`on_round` from the ``on_round_end`` hook and :meth:`on_checkpoint`
    from the checkpoint sink.  Rate and ETA count only the rounds this
    process ran, so a resumed cell's restored rounds do not inflate them.
    Round-cadence writes are throttled to ``min_interval`` seconds; lifecycle
    writes (:meth:`start`, :meth:`on_checkpoint`, :meth:`finish`) always land.

    Parameters
    ----------
    status_dir:
        The sweep's status directory; the cell file goes into its
        ``cells/`` subdirectory, named by the cell key.
    key:
        The cell's spec content hash (also the trace/store key).
    total_rounds:
        The cell's round budget, for progress fractions and ETA (``None``
        leaves ETA unreported).
    label:
        Human-readable cell name carried into the rendered table.
    registry:
        Optional live :class:`MetricsRegistry` whose snapshot rides on every
        heartbeat, giving the board a merged mid-flight metrics view.
    wall_clock / min_interval:
        Injectable time source and write throttle (byte-stable tests).
    """

    def __init__(
        self,
        status_dir: str | Path,
        key: str,
        total_rounds: int | None = None,
        label: str | None = None,
        registry: MetricsRegistry | None = None,
        wall_clock: Callable[[], float] = time.time,
        min_interval: float = DEFAULT_MIN_INTERVAL,
    ) -> None:
        self.path = Path(status_dir) / CELLS_DIRNAME / f"{key}.json"
        self.key = key
        self.total_rounds = total_rounds
        self.label = label or key[:12]
        self.registry = registry
        self._wall_clock = wall_clock
        self._min_interval = min_interval
        self._started: float | None = None
        self._last_write = float("-inf")
        self.rounds_completed = 0
        #: The round the run started from (non-zero after a resume).
        self.start_round = 0
        self.last_checkpoint_round: int | None = None
        self._state = "running"

    def _document(self, now: float) -> dict[str, Any]:
        elapsed = max(0.0, now - (self._started if self._started is not None else now))
        ran = self.rounds_completed - self.start_round
        rounds_per_sec = ran / elapsed if elapsed > 0 else None
        eta = None
        if (
            rounds_per_sec
            and self.total_rounds is not None
            and self.total_rounds > self.rounds_completed
        ):
            eta = (self.total_rounds - self.rounds_completed) / rounds_per_sec
        document: dict[str, Any] = {
            "key": self.key,
            "label": self.label,
            "state": self._state,
            "rounds_completed": self.rounds_completed,
            "total_rounds": self.total_rounds,
            "rounds_per_sec": rounds_per_sec,
            "eta_seconds": eta,
            "last_checkpoint_round": self.last_checkpoint_round,
            "pid": os.getpid(),
            "started_unix": self._started,
            "updated_unix": now,
        }
        if self.registry is not None:
            document["metrics"] = self.registry.to_dict()
        return document

    def _write(self, force: bool) -> None:
        now = self._wall_clock()
        if not force and now - self._last_write < self._min_interval:
            return
        self._last_write = now
        self.path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write_json(self.path, self._document(now))

    def start(self) -> "CellStatusWriter":
        """Mark the cell running and write the first heartbeat; returns self."""

        self._started = self._wall_clock()
        self._write(force=True)
        return self

    def on_run_start(self, rounds_completed: int) -> None:
        """Run-start hook: the round the run starts from, left out of the rate."""

        self.start_round = self.rounds_completed = int(rounds_completed)

    def on_round(self, rounds_completed: int) -> None:
        """Round-end hook: record progress, heartbeat at most every throttle tick."""

        self.rounds_completed = int(rounds_completed)
        self._write(force=False)

    def on_checkpoint(self, rounds_completed: int) -> None:
        """Checkpoint-sink hook: record the snapshot round, always heartbeat."""

        self.last_checkpoint_round = int(rounds_completed)
        self.rounds_completed = max(self.rounds_completed, int(rounds_completed))
        self._write(force=True)


class StatusBoard:
    """Per-sweep status aggregator behind the ``--status`` flag.

    The sweep executor registers every cell, flips states as cells skip,
    finish, pause or fail, and the board folds in the live per-cell
    heartbeats (written in-process or by pool workers) on every
    :meth:`refresh` — then atomically rewrites ``status.json``.  A daemon
    refresher thread (:meth:`start_auto_refresh`) keeps the document fresh
    while the parent blocks inside ``pool.imap``.

    All methods are thread-safe; nothing here is reachable from the
    simulation's RNG paths, so the board cannot perturb results.
    """

    def __init__(
        self,
        status_dir: str | Path,
        sweep_name: str = "",
        workers: int = 1,
        wall_clock: Callable[[], float] = time.time,
        refresh_interval: float = 1.0,
    ) -> None:
        self.status_dir = Path(status_dir)
        self.path = self.status_dir / STATUS_FILENAME
        self.cells_dir = self.status_dir / CELLS_DIRNAME
        self.sweep_name = sweep_name
        self.workers = workers
        self._wall_clock = wall_clock
        self._refresh_interval = refresh_interval
        self._lock = threading.Lock()
        self._cells: dict[str, dict[str, Any]] = {}
        self._metrics = MetricsRegistry()
        self._state = "running"
        self._started = wall_clock()
        self._stop_event: threading.Event | None = None
        self._thread: threading.Thread | None = None
        self.cells_dir.mkdir(parents=True, exist_ok=True)

    # -- sweep-side bookkeeping ----------------------------------------------------
    def register_cells(
        self, cells: list[tuple[str, str, int | None]]
    ) -> "StatusBoard":
        """Declare the sweep's cells as ``(key, label, total_rounds)``; returns self."""

        with self._lock:
            for key, label, total_rounds in cells:
                self._cells[key] = {
                    "key": key,
                    "label": label,
                    "state": "pending",
                    "rounds_completed": 0,
                    "total_rounds": total_rounds,
                    "rounds_per_sec": None,
                    "eta_seconds": None,
                    "last_checkpoint_round": None,
                    "pid": None,
                }
        self.refresh()
        return self

    def _set_terminal(
        self, key: str, state: str, rounds_completed: int | None = None
    ) -> None:
        with self._lock:
            cell = self._cells.setdefault(key, {"key": key, "label": key[:12]})
            cell["state"] = state
            if rounds_completed is not None:
                cell["rounds_completed"] = int(rounds_completed)
            elif state == "done" and cell.get("total_rounds") is not None:
                cell["rounds_completed"] = cell["total_rounds"]
            cell["rounds_per_sec"] = None
            cell["eta_seconds"] = None
            live = self.cells_dir / f"{key}.json"
            try:
                live_doc = json.loads(live.read_text(encoding="utf-8"))
                cell["last_checkpoint_round"] = live_doc.get("last_checkpoint_round")
                live.unlink()
            except (OSError, json.JSONDecodeError):
                pass
        self.refresh()

    def mark_skipped(self, key: str) -> None:
        """The cell was found in the store and will not run."""

        self._set_terminal(key, "skipped")

    def mark_done(self, key: str, rounds_completed: int | None = None) -> None:
        """The cell finished and its result was persisted."""

        self._set_terminal(key, "done", rounds_completed)

    def mark_paused(self, key: str, rounds_completed: int | None = None) -> None:
        """The cell checkpointed itself and stopped (preemption)."""

        self._set_terminal(key, "paused", rounds_completed)

    def merge_metrics(self, registry: "MetricsRegistry | Mapping[str, Any]") -> None:
        """Fold a finished cell's registry into the board's merged snapshot."""

        with self._lock:
            self._metrics.merge(registry)

    # -- document assembly ---------------------------------------------------------
    def _overlay_live_cells(self) -> None:
        """Fold live heartbeat files into the bookkeeping (lock held by caller)."""

        try:
            live_files = sorted(self.cells_dir.glob("*.json"))
        except OSError:
            return
        for path in live_files:
            try:
                live = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                continue  # mid-replace or already deleted; next refresh catches up
            key = live.get("key")
            if not isinstance(key, str):
                continue
            cell = self._cells.setdefault(key, {"key": key, "label": key[:12]})
            if cell.get("state") in ("done", "skipped", "paused", "failed"):
                continue  # the parent's terminal verdict wins over a stale heartbeat
            if not cell.get("label") or cell["label"] == key[:12]:
                # Keep the board's axis-rich label when it has one; the live
                # writer only knows the spec's generic workload/scheme name.
                if live.get("label"):
                    cell["label"] = live["label"]
            for field in (
                "state",
                "rounds_completed",
                "total_rounds",
                "rounds_per_sec",
                "eta_seconds",
                "last_checkpoint_round",
                "pid",
            ):
                if live.get(field) is not None:
                    cell[field] = live[field]
            if isinstance(live.get("metrics"), dict):
                cell["_live_metrics"] = live["metrics"]

    def _document(self) -> dict[str, Any]:
        counts: dict[str, int] = {state: 0 for state in CELL_STATES}
        merged = MetricsRegistry().merge(self._metrics)
        cells: dict[str, dict[str, Any]] = {}
        for key in sorted(self._cells):
            cell = dict(self._cells[key])
            live_metrics = cell.pop("_live_metrics", None)
            if live_metrics:
                merged.merge(live_metrics)
            counts[cell.get("state", "pending")] = (
                counts.get(cell.get("state", "pending"), 0) + 1
            )
            cells[key] = cell
        return {
            "version": STATUS_VERSION,
            "sweep": self.sweep_name,
            "workers": self.workers,
            "state": self._state,
            "started_unix": self._started,
            "updated_unix": self._wall_clock(),
            "counts": counts,
            "cells": cells,
            "metrics": merged.to_dict(),
        }

    def refresh(self) -> None:
        """Re-read live cell heartbeats and atomically rewrite ``status.json``."""

        with self._lock:
            self._overlay_live_cells()
            document = self._document()
        _atomic_write_json(self.path, document)

    # -- lifecycle -----------------------------------------------------------------
    def start_auto_refresh(self) -> "StatusBoard":
        """Refresh on a daemon thread while the sweep blocks; returns self."""

        if self._thread is not None:
            return self
        self._stop_event = threading.Event()

        def _loop() -> None:
            while not self._stop_event.wait(self._refresh_interval):
                try:
                    self.refresh()
                except OSError:  # pragma: no cover - disk-full etc.; keep trying
                    pass

        self._thread = threading.Thread(
            target=_loop, name="status-board-refresh", daemon=True
        )
        self._thread.start()
        return self

    def finalize(self, state: str = "done") -> None:
        """Stop the refresher and write the terminal document (idempotent)."""

        if self._stop_event is not None:
            self._stop_event.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
            self._stop_event = None
        with self._lock:
            self._state = state
            # In-flight cells at finalize time were interrupted before a
            # terminal verdict; report them as paused, not forever-running.
            if state != "running":
                for cell in self._cells.values():
                    if cell.get("state") == "running":
                        cell["state"] = "paused" if state == "interrupted" else state
        self.refresh()


# -- read side (jwins-repro top) ---------------------------------------------------
def load_status(target: str | Path) -> dict[str, Any]:
    """Parse a status document from a directory (``status.json`` inside) or file."""

    path = Path(target)
    try:
        text = path.read_text(encoding="utf-8")
    except IsADirectoryError:
        # Read first, ask later: an ``is_dir()`` probe races a writer that
        # creates the status directory between the probe and the read.
        text = (path / STATUS_FILENAME).read_text(encoding="utf-8")
    return json.loads(text)


def _fmt_eta(seconds: Any) -> str:
    if not isinstance(seconds, (int, float)):
        return "-"
    seconds = int(seconds)
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


def render_status(document: Mapping[str, Any], now: float | None = None) -> str:
    """The fixed-width table ``jwins-repro top`` prints for one document."""

    now = time.time() if now is None else now
    updated = document.get("updated_unix")
    age = f"{max(0.0, now - updated):.1f}s ago" if isinstance(updated, (int, float)) else "?"
    counts = document.get("counts", {})
    count_note = ", ".join(
        f"{counts[state]} {state}" for state in CELL_STATES if counts.get(state)
    )
    lines = [
        f"sweep={document.get('sweep') or '<adhoc>'}  state={document.get('state')}  "
        f"workers={document.get('workers')}  updated {age}",
        f"cells: {count_note or 'none'}",
    ]
    cells = document.get("cells", {})
    if cells:
        rows = []
        for key in sorted(cells):
            cell = cells[key]
            total = cell.get("total_rounds")
            progress = f"{cell.get('rounds_completed', 0)}/{total if total is not None else '?'}"
            rps = cell.get("rounds_per_sec")
            rows.append(
                (
                    (cell.get("label") or key)[:32],
                    cell.get("state", "?"),
                    progress,
                    f"{rps:.2f}" if isinstance(rps, (int, float)) else "-",
                    _fmt_eta(cell.get("eta_seconds")),
                    str(cell.get("last_checkpoint_round"))
                    if cell.get("last_checkpoint_round") is not None
                    else "-",
                    str(cell.get("pid")) if cell.get("pid") is not None else "-",
                )
            )
        header = ("cell", "state", "rounds", "r/s", "eta", "ckpt", "pid")
        widths = [
            max(len(header[i]), max(len(row[i]) for row in rows))
            for i in range(len(header))
        ]
        lines.append("  ".join(f"{header[i]:<{widths[i]}}" for i in range(len(header))))
        for row in rows:
            lines.append("  ".join(f"{row[i]:<{widths[i]}}" for i in range(len(header))))
    metrics = document.get("metrics") or {}
    if metrics:
        lines.append(f"metrics: {len(metrics)} instrument(s) merged")
    return "\n".join(lines)


#: Sweep states that mean no further updates will arrive.
TERMINAL_STATES = ("done", "interrupted", "failed")


def watch_status(
    target: str | Path,
    interval: float = 2.0,
    once: bool = False,
    stream: Any = None,
) -> int:
    """The ``jwins-repro top`` loop: render until the sweep reaches a terminal state.

    Returns the process exit code (0 on a terminal document, 1 when ``once``
    finds no status file or one that is not JSON).  ``once`` renders a single
    frame; the refreshing mode clears the screen between frames, waits out a
    missing or unreadable file, and also exits on Ctrl-C.
    """

    stream = sys.stdout if stream is None else stream
    path = Path(target)
    while True:
        try:
            document = load_status(path)
        except FileNotFoundError:
            if once:
                print(f"no status document at {path}", file=stream)
                return 1
            time.sleep(interval)
            continue
        except json.JSONDecodeError:
            if once:
                print(f"status document at {path} is not valid JSON", file=stream)
                return 1
            # A reader racing the very first write of a non-atomic filesystem;
            # atomic replace makes this near-impossible, but never crash on it.
            time.sleep(interval)
            continue
        frame = render_status(document)
        try:
            if once:
                print(frame, file=stream)
                return 0
            print("\x1b[2J\x1b[H" + frame, file=stream, flush=True)
            if document.get("state") in TERMINAL_STATES:
                print(
                    f"sweep reached terminal state {document.get('state')!r}",
                    file=stream,
                )
                return 0
        except BrokenPipeError:
            # The reader hung up (e.g. `top ... | head`); that is a normal way
            # to stop watching, not an error.  Point the fd at devnull so the
            # interpreter's exit-time stdout flush cannot raise again.
            if stream is sys.stdout:
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 0
        try:
            time.sleep(interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            return 0
