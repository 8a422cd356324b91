"""Tests for the sweep executor: resume, observers and parallel determinism.

These pin the two orchestration acceptance criteria:

* an interrupted sweep resumes without recomputing completed cells (proven by
  counting executed specs through a :class:`SweepObserver`);
* a 2-worker run of the Table I grid on the synthetic workloads matches the
  serial run's accuracies and byte counts exactly (bit-identical results).
"""

import json

import pytest

from repro.observability.metrics import MetricsRegistry
from repro.orchestration import pool
from repro.orchestration.pool import SweepObserver, run_sweep
from repro.orchestration.schemes import SchemeSpec
from repro.orchestration.spec import ExperimentSpec
from repro.orchestration.store import ResultStore
from repro.orchestration.sweep import Sweep
from repro.orchestration.artifacts import table1_sweep

TINY = {"num_nodes": 4, "degree": 2, "rounds": 2, "eval_every": 1, "eval_test_samples": 32}


class CountingObserver(SweepObserver):
    def __init__(self):
        self.started = []
        self.executed = []
        self.skipped = []

    def on_start(self, spec):
        self.started.append(spec)

    def on_result(self, spec, result):
        self.executed.append(spec)

    def on_skip(self, spec, result):
        self.skipped.append(spec)


class InterruptAfter(SweepObserver):
    """Simulates the user hitting Ctrl-C after N completed cells."""

    def __init__(self, cells: int):
        self.cells = cells
        self.completed = 0

    def on_result(self, spec, result):
        self.completed += 1
        if self.completed >= self.cells:
            raise KeyboardInterrupt


def _sweep(**kwargs):
    defaults = dict(
        name="test",
        workloads=("movielens",),
        schemes=(SchemeSpec("jwins"), SchemeSpec("full-sharing")),
        axes={"seed": (1, 2)},
        base_overrides=TINY,
    )
    defaults.update(kwargs)
    return Sweep(**defaults)


class TestSerialExecution:
    def test_all_cells_execute_and_outcome_is_complete(self):
        observer = CountingObserver()
        outcome = run_sweep(_sweep(), observer=observer)
        assert len(outcome.executed) == 4
        assert len(outcome.skipped) == 0
        assert len(outcome.results) == 4
        assert [s.content_hash() for s in observer.started] == [
            s.content_hash() for s in observer.executed
        ]
        for spec in outcome.specs:
            assert outcome.result_for(spec).rounds_completed == 2

    def test_serial_sweep_runs_the_pool_worker_in_process(self, monkeypatch):
        """One worker, one consumer: ``workers=1`` is the pool path minus the pool."""

        tasks, events = [], []

        class Log(SweepObserver):
            def on_start(self, spec):
                events.append(("start", spec.content_hash()))

            def on_result(self, spec, result):
                events.append(("result", spec.content_hash()))

        serial_registry, pooled_registry = MetricsRegistry(), MetricsRegistry()
        with monkeypatch.context() as patch:
            worker = pool._execute_spec_task
            patch.setattr(
                pool, "_execute_spec_task", lambda task: tasks.append(task) or worker(task)
            )
            serial = run_sweep(_sweep(), observer=Log(), metrics=serial_registry)
        keys = [spec.content_hash() for spec in _sweep().expand()]
        assert [ExperimentSpec.from_dict(task[0]).content_hash() for task in tasks] == keys
        # Serially, each cell is announced immediately before its own result.
        assert events == [(kind, key) for key in keys for kind in ("start", "result")]

        pooled = run_sweep(_sweep(), workers=2, metrics=pooled_registry)
        assert serial.executed == pooled.executed == _sweep().expand()
        assert serial.skipped == serial.paused == pooled.paused == []
        assert not serial.interrupted and not pooled.interrupted
        assert serial.labels == pooled.labels
        assert {key: result.to_dict() for key, result in serial.results.items()} == {
            key: result.to_dict() for key, result in pooled.results.items()
        }
        assert serial_registry.to_dict() == pooled_registry.to_dict() != {}

    def test_a_failing_serial_cell_propagates_and_merges_no_metrics(self, monkeypatch):
        """Like a pool worker, a cell that raises hands back no registry."""

        def explode(self, **kwargs):
            (registry,) = kwargs["observers"]  # the cell's own registry
            registry.counter("half_filled").inc()
            raise RuntimeError("boom")

        monkeypatch.setattr(ExperimentSpec, "run", explode)
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError, match="boom"):
            run_sweep(_sweep(), metrics=registry)
        assert registry.to_dict() == {}

    def test_labelled_results_include_axis_values(self):
        outcome = run_sweep(_sweep())
        labels = list(outcome.labelled_results())
        assert "movielens/jwins/seed=1" in labels
        assert "movielens/jwins/seed=2" in labels
        assert len(labels) == 4

    def test_duplicate_cells_execute_once(self):
        sweep = _sweep(axes={"seed": (3, 3)})  # same cell twice
        observer = CountingObserver()
        outcome = run_sweep(sweep, observer=observer)
        assert len(outcome.specs) == 4  # the sweep still lists every occurrence
        assert len(observer.executed) == 2  # but each unique cell ran once
        assert len(outcome.results) == 2
        for spec in outcome.specs:
            assert outcome.result_for(spec).rounds_completed == 2

    def test_accepts_plain_spec_lists(self):
        specs = [ExperimentSpec("movielens", "jwins", {**TINY, "seed": 1})]
        outcome = run_sweep(specs)
        assert outcome.name == "adhoc"
        assert len(outcome.executed) == 1

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            run_sweep(_sweep(), workers=0)


def test_cell_sinks_are_named_by_spec_hash_and_off_without_a_directory(tmp_path):
    """The one constructor of each per-cell sink (sweeps, forks and the CLI)."""

    spec = ExperimentSpec("movielens", "jwins", {**TINY, "seed": 1})
    key = spec.content_hash()
    assert pool.cell_trace(None, key) is None
    assert pool.cell_heartbeat(None, spec, None) is None
    assert pool.cell_trace(tmp_path, key).path == tmp_path / f"{key}.trace.jsonl"
    heartbeat = pool.cell_heartbeat(tmp_path, spec, MetricsRegistry())
    document = json.loads(heartbeat.path.read_text(encoding="utf-8"))
    assert heartbeat.path == tmp_path / "cells" / f"{key}.json"
    assert (document["state"], document["total_rounds"]) == ("running", TINY["rounds"])
    assert (document["key"], document["label"]) == (key, spec.label)


class TestResume:
    def test_interrupted_sweep_resumes_without_recomputing(self, tmp_path):
        """Acceptance: interrupt after 2 of 4 cells, resume runs exactly 2."""

        store_path = tmp_path / "results.jsonl"
        sweep = _sweep()

        with pytest.raises(KeyboardInterrupt):
            run_sweep(sweep, ResultStore(store_path), observer=InterruptAfter(2))
        assert len(ResultStore(store_path)) == 2

        observer = CountingObserver()
        outcome = run_sweep(sweep, ResultStore(store_path), observer=observer)
        assert len(observer.executed) == 2  # only the missing cells ran
        assert len(observer.skipped) == 2  # the completed ones were reused
        assert len(outcome.results) == 4  # but the outcome is complete

        # A third run recomputes nothing at all.
        observer = CountingObserver()
        run_sweep(sweep, ResultStore(store_path), observer=observer)
        assert len(observer.executed) == 0
        assert len(observer.skipped) == 4

    def test_skipped_results_equal_executed_ones(self, tmp_path):
        store_path = tmp_path / "results.jsonl"
        sweep = _sweep()
        first = run_sweep(sweep, ResultStore(store_path))
        second = run_sweep(sweep, ResultStore(store_path))
        for key, result in first.results.items():
            assert second.results[key].to_dict() == result.to_dict()

    def test_config_change_invalidates_stored_cells(self, tmp_path):
        store_path = tmp_path / "results.jsonl"
        run_sweep(_sweep(), ResultStore(store_path))
        observer = CountingObserver()
        changed = _sweep(base_overrides={**TINY, "rounds": 3})
        run_sweep(changed, ResultStore(store_path), observer=observer)
        assert len(observer.executed) == 4  # nothing matched the old hashes
        assert len(observer.skipped) == 0

    def test_force_reexecutes_stored_cells(self, tmp_path):
        store_path = tmp_path / "results.jsonl"
        run_sweep(_sweep(), ResultStore(store_path))
        observer = CountingObserver()
        run_sweep(_sweep(), ResultStore(store_path), observer=observer, force=True)
        assert len(observer.executed) == 4
        assert len(observer.skipped) == 0


class TestParallelDeterminism:
    def test_two_worker_table1_grid_matches_serial_exactly(self):
        """Acceptance: parallel and serial runs are bit-identical.

        Uses the Table I grid (full sharing, random sampling, JWINS) on the
        synthetic movielens workload at test scale.
        """

        sweep = table1_sweep(workloads=("movielens",), scale=TINY)
        serial = run_sweep(sweep, ResultStore(), workers=1)
        parallel = run_sweep(sweep, ResultStore(), workers=2)

        assert len(serial.results) == len(parallel.results) == 3
        for spec in sweep.expand():
            a = serial.result_for(spec)
            b = parallel.result_for(spec)
            # Bit-identical accuracies, byte counts and full histories.
            assert a.to_dict() == b.to_dict()
            assert a.final_accuracy == b.final_accuracy
            assert a.total_bytes == b.total_bytes

    def test_parallel_run_fills_the_store_like_serial(self, tmp_path):
        sweep = _sweep()
        serial_store = ResultStore(tmp_path / "serial.jsonl")
        parallel_store = ResultStore(tmp_path / "parallel.jsonl")
        run_sweep(sweep, serial_store, workers=1)
        run_sweep(sweep, parallel_store, workers=2)
        for spec in sweep.expand():
            assert serial_store.get(spec).to_dict() == parallel_store.get(spec).to_dict()

    def test_parallel_resume_skips_stored_cells(self, tmp_path):
        store_path = tmp_path / "results.jsonl"
        sweep = _sweep()
        run_sweep(sweep.expand()[:2], ResultStore(store_path))
        observer = CountingObserver()
        outcome = run_sweep(sweep, ResultStore(store_path), workers=2, observer=observer)
        assert len(observer.skipped) == 2
        assert len(observer.executed) == 2
        assert len(outcome.results) == 4
