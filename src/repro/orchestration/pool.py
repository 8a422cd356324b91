"""Sweep execution: serial or on a ``multiprocessing`` worker pool.

:func:`run_sweep` expands a :class:`~repro.orchestration.sweep.Sweep` (or takes
pre-expanded specs), skips every cell whose content hash is already in the
:class:`~repro.orchestration.store.ResultStore` (resume), and executes the
remainder — in-process when ``workers == 1``, on a process pool otherwise.

There is one worker, :func:`_execute_spec_task`, and one consumer loop: the
pool maps the worker over the pending cells with ``imap``, a serial sweep
calls the very same function in-process, one cell at a time.  Each cell is an
:class:`~repro.orchestration.spec.ExperimentSpec` that carries its own seed and
is rebuilt from its serialized form inside the worker on both paths, so
"1 worker == N workers" holds by construction (and stays pinned by a test).

With ``checkpoint_dir`` set the sweep becomes **preemptible**: ``SIGINT`` is
routed to :mod:`repro.checkpoint.preemption` (in the main process and in every
worker), in-flight cells finish their current round, snapshot themselves under
their spec hash and stop, and not-yet-started cells are abandoned.  Re-running
the same sweep resumes every paused cell *mid-spec* from its snapshot; the
resulting store is byte-identical to an uninterrupted run's — the fourth
determinism pillar.

Progress is observable through :class:`SweepObserver` hooks — the resume
acceptance test counts executed specs exactly this way, and the CLI uses the
same hooks for its progress lines.  The per-cell telemetry sinks
(:func:`cell_trace`, :func:`cell_heartbeat`) are built here and nowhere else.
The CLI's ``run``, ``sweep`` and ``fork`` are each one :func:`run_sweep`
call; ``snapshots=`` lets ``run --resume-from`` and ``fork`` start their cell
from a given snapshot.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

from repro.checkpoint import SimulationSnapshot, preemption
from repro.evaluation.workloads import get_workload
from repro.exceptions import ConfigurationError, ExperimentPaused
from repro.observability.metrics import MetricsRegistry
from repro.observability.status import CellStatusWriter, StatusBoard
from repro.observability.trace import TraceEmitter
from repro.orchestration.spec import ExperimentSpec
from repro.orchestration.store import ResultStore
from repro.orchestration.sweep import Sweep
from repro.simulation import ExperimentResult

__all__ = [
    "SweepObserver",
    "SweepOutcome",
    "cell_heartbeat",
    "cell_trace",
    "run_sweep",
    "spec_total_rounds",
]


class SweepObserver:
    """Progress hooks; override any subset (mirrors ``SimulationObserver``)."""

    def on_skip(self, spec: ExperimentSpec, result: ExperimentResult) -> None:
        """``spec`` was found in the store and will not be re-executed."""

    def on_start(self, spec: ExperimentSpec) -> None:
        """``spec`` was submitted for execution.

        Under serial execution (``workers == 1``) submission and execution
        coincide, so this fires immediately before the cell runs.  Under pool
        execution every pending cell is submitted up front, so this fires for
        all of them before the first result arrives — do not use start->result
        spans to time individual cells in pool mode.
        """

    def on_result(self, spec: ExperimentSpec, result: ExperimentResult) -> None:
        """``spec`` finished executing and its result was persisted."""

    def on_pause(self, spec: ExperimentSpec, rounds_completed: int) -> None:
        """``spec`` checkpointed itself at ``rounds_completed`` and stopped."""


@dataclass
class SweepOutcome:
    """Everything a caller needs after a sweep ran.

    ``results`` covers every requested spec (stored *and* freshly executed),
    keyed by content hash; ``executed``/``skipped`` partition the *unique*
    specs by whether this invocation actually ran them (duplicate cells — the
    same content hash appearing twice in one sweep — execute once and appear
    once).  ``paused`` holds cells that checkpointed mid-run after a
    preemption; ``interrupted`` is set when the sweep stopped before every
    cell completed — re-run the same command to resume.
    """

    name: str
    specs: list[ExperimentSpec]
    results: dict[str, ExperimentResult] = field(default_factory=dict)
    executed: list[ExperimentSpec] = field(default_factory=list)
    skipped: list[ExperimentSpec] = field(default_factory=list)
    paused: list[ExperimentSpec] = field(default_factory=list)
    interrupted: bool = False
    #: Content hash -> human-readable cell label (axis values included when the
    #: sweep declared axes, so labels are unique within one sweep).
    labels: dict[str, str] = field(default_factory=dict)

    def result_for(self, spec: ExperimentSpec) -> ExperimentResult:
        """The result stored or computed for ``spec`` (KeyError if neither)."""

        return self.results[spec.content_hash()]

    def labelled_results(self) -> dict[str, ExperimentResult]:
        """``{cell label: result}`` for every spec that has a result, in order."""

        return {
            self.labels[spec.content_hash()]: self.results[spec.content_hash()]
            for spec in self.specs
            if spec.content_hash() in self.results
        }


def cell_trace(trace_dir: str | Path | None, key: str) -> TraceEmitter | None:
    """The per-cell trace emitter, or ``None`` when tracing is off.

    Every cell writes its own file, named by its content hash, so the file
    set — and each file's stripped byte content — is identical for any worker
    count and any completion order.  The caller closes the emitter.
    """

    if trace_dir is None:
        return None
    return TraceEmitter(Path(trace_dir) / f"{key}.trace.jsonl")


def spec_total_rounds(spec: ExperimentSpec) -> int | None:
    """The cell's round budget, for status progress/ETA reporting only.

    Read from the overrides (or the workload's default config) without
    materializing the task, so computing it cannot perturb the run.
    """

    rounds = spec.overrides.get("rounds")
    if rounds is not None:
        return int(rounds)
    try:
        return int(get_workload(spec.workload).config.rounds)
    except ConfigurationError:  # pragma: no cover - spec validated at build
        return None


def cell_heartbeat(
    status_dir: str | Path | None,
    spec: ExperimentSpec,
    registry: MetricsRegistry | None,
) -> CellStatusWriter | None:
    """The started per-cell status heartbeat, or ``None`` when status is off."""

    if status_dir is None:
        return None
    return CellStatusWriter(
        status_dir,
        spec.content_hash(),
        total_rounds=spec_total_rounds(spec),
        label=spec.label,
        registry=registry,
    ).start()


def _execute_spec_task(
    task: tuple[dict[str, Any], str | None, int, SimulationSnapshot | None, dict[str, Any]],
) -> tuple[str, dict[str, Any]]:
    """The one cell worker: a pool process maps it, a serial sweep calls it.

    Returns ``(key, payload)`` with ``payload["status"]`` one of ``"done"``
    (carries the result), ``"paused"`` (the cell checkpointed and stopped) or
    ``"preempted"`` (the interrupt was seen before the cell started, which
    drains a pool's queue quickly).  When the sweep's ``telemetry`` options
    ask for metrics, the payload also carries the cell registry's snapshot
    for the sweep to merge.  Any other exception propagates, its half-filled
    registry with it.
    """

    spec_dict, checkpoint_dir, checkpoint_every, snapshot, telemetry = task
    spec = ExperimentSpec.from_dict(spec_dict)
    key = spec.content_hash()
    if preemption.interrupted():
        return key, {"status": "preempted"}
    # A registry per cell, in-process too, so gauges merge with max semantics.
    registry = MetricsRegistry() if telemetry.get("metrics") else None
    trace = cell_trace(telemetry.get("trace_dir"), key)
    try:
        result = spec.run(
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            snapshot=snapshot,
            observers=[observer for observer in (registry, trace) if observer is not None],
            heartbeat=cell_heartbeat(telemetry.get("status_dir"), spec, registry),
        )
    except ExperimentPaused as paused:
        payload: dict[str, Any] = {
            "status": "paused",
            "rounds_completed": int(paused.snapshot.rounds_completed),
        }
    else:
        payload = {"status": "done", "result": result.to_dict()}
    finally:
        if trace is not None:
            trace.close()
    if registry is not None:
        payload["metrics"] = registry.to_dict()
    return key, payload


def _worker_initializer() -> None:
    """Pool-worker setup: route the worker's ``SIGINT`` to preemption."""

    preemption.reset()
    preemption.install_preemption_handler()


def _pool_context() -> multiprocessing.context.BaseContext:
    # fork is cheapest where available (Linux); spawn everywhere else.  Either
    # way the worker rebuilds everything from the serialized spec, so the
    # start method cannot influence results.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def run_sweep(
    sweep: Sweep | Sequence[ExperimentSpec],
    store: ResultStore | None = None,
    workers: int = 1,
    observer: SweepObserver | None = None,
    force: bool = False,
    checkpoint_dir: str | None = None,
    checkpoint_every: int = 0,
    metrics: MetricsRegistry | None = None,
    trace_dir: str | Path | None = None,
    status_dir: str | Path | None = None,
    snapshots: Mapping[str, SimulationSnapshot] | None = None,
) -> SweepOutcome:
    """Execute every cell of ``sweep`` that the store does not already hold.

    Parameters
    ----------
    sweep:
        A :class:`Sweep` or an explicit spec list.
    store:
        Completed-cell persistence; defaults to a fresh in-memory store (no
        resume between calls, but the outcome still carries every result).
    workers:
        Process count; ``1`` executes in-process (fully synchronous, exception
        transparent), ``>= 2`` uses a ``multiprocessing`` pool.
    observer:
        Optional :class:`SweepObserver` receiving skip/start/result/pause
        events.
    force:
        Re-execute cells even when the store already holds them (the fresh
        result overwrites the stored one).
    checkpoint_dir:
        Directory for mid-spec snapshots; enables preemption (``SIGINT``
        checkpoints in-flight cells and stops the sweep) and automatic
        mid-spec resume on the next invocation.
    checkpoint_every:
        Cadence (in completed global rounds) of per-cell snapshots; requires
        ``checkpoint_dir``.
    metrics:
        Parent :class:`~repro.observability.metrics.MetricsRegistry`.  Every
        executed cell records into a registry of its own, handed back as a
        snapshot by the worker on both paths, and the parent folds the
        snapshots in with the order-independent merge — the merged registry
        is identical for any worker count.  A cell that raises contributes
        nothing.
    trace_dir:
        Directory receiving one ``<spec hash>.trace.jsonl`` per executed
        cell.  Per-cell files keep stripped traces byte-identical across
        worker counts (a shared file would interleave nondeterministically).
    status_dir:
        Directory receiving an atomically rewritten ``status.json`` heartbeat
        (see :mod:`repro.observability.status`): per-cell state, current
        round/total, rounds/sec, ETA, worker pid, last checkpoint round and
        a merged live metrics snapshot, updated from both the serial and the
        pool path.  Render it live with ``jwins-repro top <dir>``.  Pure
        wall-side telemetry — RNG order and stored bytes are unaffected.
    snapshots:
        Content hash -> the snapshot that cell resumes from (``run
        --resume-from``, ``fork``).  It wins over a ``checkpoint_dir`` lookup;
        :meth:`ExperimentSpec.run` refuses a snapshot that neither embeds the
        cell's spec nor is named by its fork lineage.
    """

    if isinstance(sweep, Sweep):
        cells = sweep.cells()
        name, specs = sweep.name, [cell.spec for cell in cells]
        labels = {cell.spec.content_hash(): cell.label for cell in cells}
    else:
        name, specs = "adhoc", list(sweep)
        labels = {spec.content_hash(): spec.label for spec in specs}
    if store is None:
        store = ResultStore()
    if observer is None:
        observer = SweepObserver()
    if workers < 1:
        raise ValueError("workers must be >= 1")

    outcome = SweepOutcome(name=name, specs=specs, labels=labels)

    board: StatusBoard | None = None
    if status_dir is not None:
        registered: dict[str, tuple[str, str, int | None]] = {}
        for spec in specs:
            key = spec.content_hash()
            if key not in registered:
                registered[key] = (
                    key,
                    labels.get(key, spec.label),
                    spec_total_rounds(spec),
                )
        board = StatusBoard(status_dir, sweep_name=name, workers=workers)
        board.register_cells(list(registered.values()))

    pending: list[ExperimentSpec] = []
    pending_keys: set[str] = set()
    for spec in specs:
        key = spec.content_hash()
        if key in pending_keys:
            # Duplicate cell (e.g. a repeated seed axis value): execute once,
            # the shared results entry serves every occurrence.
            continue
        stored = None if force else store.get(spec)
        if stored is not None:
            outcome.results[key] = stored
            outcome.skipped.append(spec)
            observer.on_skip(spec, stored)
            if board is not None:
                board.mark_skipped(key)
        else:
            pending.append(spec)
            pending_keys.add(key)

    preemptible = checkpoint_dir is not None
    telemetry = {
        # Cells record into a registry whenever either consumer wants it: the
        # caller's merged registry or the status board's live snapshot.
        "metrics": metrics is not None or board is not None,
        "trace_dir": None if trace_dir is None else str(trace_dir),
        "status_dir": None if status_dir is None else str(status_dir),
    }
    snapshots = snapshots or {}
    tasks = [
        (
            spec.to_dict(),
            checkpoint_dir,
            checkpoint_every,
            snapshots.get(spec.content_hash()),
            telemetry,
        )
        for spec in pending
    ]

    def in_process() -> Iterator[tuple[str, dict[str, Any]]]:
        """The pool worker called in this process, one cell at a time.

        Each cell is announced just before it runs, and none starts once the
        outcome is interrupted.
        """

        for spec, task in zip(pending, tasks):
            if outcome.interrupted:
                return
            observer.on_start(spec)
            yield _execute_spec_task(task)

    if board is not None:
        board.start_auto_refresh()
    previous_handler = preemption.install_preemption_handler() if preemptible else None
    failed = False
    try:
        with contextlib.ExitStack() as stack:
            if workers == 1 or len(pending) <= 1:
                payloads = in_process()
            else:
                pool = stack.enter_context(
                    _pool_context().Pool(
                        processes=min(workers, len(pending)),
                        initializer=_worker_initializer if preemptible else None,
                    )
                )
                if preemptible and threading.current_thread() is threading.main_thread():
                    # A SIGINT aimed at the parent alone (e.g. `kill -INT
                    # <pid>`, a scheduler reclaiming the job) must still reach
                    # the workers, or they would happily run every remaining
                    # cell.  Forward it; workers signalled twice (process-group
                    # delivery) just see an idempotent request_preempt().
                    worker_pids = [
                        process.pid for process in pool._pool if process.pid
                    ]

                    def _forward_interrupt(signum: int, frame: Any) -> None:
                        preemption.request_preempt()
                        for pid in worker_pids:
                            try:
                                os.kill(pid, signal.SIGINT)
                            except ProcessLookupError:
                                pass

                    signal.signal(signal.SIGINT, _forward_interrupt)
                for spec in pending:
                    observer.on_start(spec)
                payloads = pool.imap(_execute_spec_task, tasks)
            # Both sources yield in ``pending`` order (``imap`` is ordered).
            for spec, (key, payload) in zip(pending, payloads):
                status = payload["status"]
                if "metrics" in payload:
                    if metrics is not None:
                        metrics.merge(payload["metrics"])
                    if board is not None:
                        board.merge_metrics(payload["metrics"])
                if status == "done":
                    store.put(spec, payload["result"])
                    result = ExperimentResult.from_dict(payload["result"])
                    outcome.results[key] = result
                    outcome.executed.append(spec)
                    observer.on_result(spec, result)
                    if board is not None:
                        board.mark_done(key, result.rounds_completed)
                elif status == "paused":
                    outcome.paused.append(spec)
                    outcome.interrupted = True
                    observer.on_pause(spec, int(payload["rounds_completed"]))
                    if board is not None:
                        board.mark_paused(key, int(payload["rounds_completed"]))
                else:  # preempted before start
                    outcome.interrupted = True
    except BaseException:
        failed = True
        raise
    finally:
        if preemptible:
            preemption.restore_handler(previous_handler)
            preemption.reset()
        if board is not None:
            board.finalize(
                "failed"
                if failed
                else ("interrupted" if outcome.interrupted else "done")
            )
    return outcome
