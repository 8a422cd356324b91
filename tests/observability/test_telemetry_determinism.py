"""Telemetry stays outside the determinism contract — pinned end to end.

Four guarantees:

* a fully instrumented run (metrics + trace + status heartbeat) produces
  results bit-identical to a bare run;
* stored rows are byte-identical with telemetry on or off (the store scrubs);
* a stripped trace is byte-stable across reruns (the fifth determinism
  oracle);
* sweep telemetry (merged metrics, per-cell traces) is identical for any
  worker count.
"""

from __future__ import annotations

import pytest

from repro.baselines.full_sharing import full_sharing_factory
from repro.observability.metrics import MetricsRegistry
from repro.observability.status import CellStatusWriter
from repro.observability.trace import TraceEmitter, read_trace, strip_wall
from repro.orchestration.pool import run_sweep
from repro.orchestration.schemes import SchemeSpec
from repro.orchestration.spec import ExperimentSpec
from repro.orchestration.store import ResultStore
from repro.orchestration.sweep import Sweep
from repro.simulation.experiment import ExperimentConfig
from repro.simulation.runner import run_experiment
from tests.conftest import make_toy_task

TINY = {"num_nodes": 4, "degree": 2, "rounds": 2, "eval_every": 1, "eval_test_samples": 32}


class FixedClock:
    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def _tiny_config(**overrides) -> ExperimentConfig:
    base = dict(
        num_nodes=4, degree=2, rounds=3, local_steps=1, batch_size=4,
        eval_every=2, eval_test_samples=16, seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _sweep() -> Sweep:
    return Sweep(
        name="telemetry",
        workloads=("movielens",),
        schemes=(SchemeSpec("jwins"), SchemeSpec("full-sharing")),
        base_overrides=TINY,
    )


@pytest.mark.parametrize("execution", ["sync", "async"])
def test_instrumented_run_is_bit_identical_to_plain(tmp_path, execution):
    task = make_toy_task(seed=5)
    plain = run_experiment(task, full_sharing_factory(), _tiny_config(execution=execution))
    registry = MetricsRegistry()
    heartbeat = CellStatusWriter(
        tmp_path / "status", "a" * 64, total_rounds=3, registry=registry
    ).start()
    instrumented = run_experiment(
        task,
        full_sharing_factory(),
        _tiny_config(execution=execution),
        observers=(registry, TraceEmitter(tmp_path / "run.trace.jsonl")),
        heartbeat=heartbeat,
    )
    assert plain.to_dict() == instrumented.to_dict()
    assert heartbeat.rounds_completed == 3


@pytest.mark.parametrize("execution", ["sync", "async"])
def test_engine_populates_the_metrics_catalog(execution):
    task = make_toy_task(seed=5)
    registry = MetricsRegistry()
    result = run_experiment(
        task, full_sharing_factory(), _tiny_config(execution=execution), observers=(registry,)
    )
    # 4 nodes x degree 2 x 3 rounds, nothing dropped or suppressed.
    assert registry.to_dict()["engine_messages_delivered{scheme=full-sharing}"]["value"] == 24
    assert registry.to_dict()["net_messages_sent{scheme=full-sharing}"]["value"] == 24
    assert registry.to_dict()["engine_rounds_completed"]["value"] == 3
    assert registry.to_dict()["engine_messages_dropped"]["value"] == 0
    assert registry.to_dict()["engine_messages_suppressed"]["value"] == 0
    assert registry.to_dict()["engine_evaluations"]["value"] == len(result.history)
    # The byte counters agree with the result's own accounting.
    assert registry.to_dict()["net_bytes_sent{scheme=full-sharing}"]["value"] == result.total_bytes
    assert (
        registry.to_dict()["net_bytes_received{scheme=full-sharing}"]["value"] == result.total_bytes
    )
    latency = registry.histogram("engine_round_latency_seconds")
    # One observation per global round under sync, per node-round under async.
    assert latency.count == (3 if execution == "sync" else 12)


@pytest.mark.parametrize("execution", ["sync", "async"])
def test_resumed_run_measures_round_latency_from_the_restored_clock(execution):
    """The first round after a resume is not charged the whole simulated clock."""

    config = _tiny_config(rounds=6, execution=execution)
    snapshots: list = []
    full = MetricsRegistry()
    result = run_experiment(
        make_toy_task(seed=5),
        full_sharing_factory(),
        config,
        checkpoint_every=3,
        checkpoint_sink=snapshots.append,
        observers=(full,),
    )
    resumed = MetricsRegistry()
    run_experiment(
        make_toy_task(seed=5),
        full_sharing_factory(),
        config,
        resume_from=snapshots[0],
        observers=(resumed,),
    )
    whole = full.histogram("engine_round_latency_seconds")
    tail = resumed.histogram("engine_round_latency_seconds")
    state = snapshots[0].mode_state
    if execution == "sync":
        elapsed = result.simulated_time_seconds - state["clock"]
    else:  # one latency series per node, each from its own restored clock
        elapsed = sum(result.per_node_time_seconds) - sum(state["node_clock"])
    assert tail.count == whole.count // 2
    assert tail.total == pytest.approx(elapsed)
    assert tail.maximum <= whole.maximum


def test_trace_records_cover_the_run(tmp_path):
    task = make_toy_task(seed=5)
    path = tmp_path / "run.trace.jsonl"
    run_experiment(
        task,
        full_sharing_factory(),
        _tiny_config(),
        observers=(TraceEmitter(path, wall_clock=FixedClock()),),
    )
    records = read_trace(path)
    kinds = [record["kind"] for record in records]
    assert kinds[0] == "manifest"
    assert kinds[-1] == "run_end"
    assert kinds.count("round") == 3
    assert kinds.count("message") == 24
    assert "evaluate" in kinds
    manifest = records[0]
    assert manifest["scheme"] == "full-sharing"
    assert manifest["num_nodes"] == 4 and manifest["seed"] == 5
    assert "python" in manifest["versions"] and "numpy" in manifest["versions"]
    run_end = records[-1]
    assert run_end["rounds_completed"] == 3
    # RSS rides in the wall section, never as a plain field.
    assert set(run_end["wall"]) == {"peak_rss_bytes", "unix_time"}
    assert run_end["wall"]["peak_rss_bytes"] > 0
    assert "peak_rss_bytes" not in {k for r in records for k in r if k != "wall"}


def test_stripped_trace_is_byte_stable_across_reruns(tmp_path):
    documents = []
    raw = []
    for index, start in enumerate((10.0, 777777.0)):
        task = make_toy_task(seed=5)
        path = tmp_path / f"run{index}.trace.jsonl"
        run_experiment(
            task,
            full_sharing_factory(),
            _tiny_config(),
            observers=(TraceEmitter(path, wall_clock=FixedClock(start=start)),),
        )
        documents.append(strip_wall(path))
        raw.append(path.read_bytes())
    assert raw[0] != raw[1]  # the wall clocks genuinely differed
    assert documents[0] == documents[1]


def test_store_rows_byte_identical_with_and_without_telemetry(tmp_path):
    bare_store = tmp_path / "bare.jsonl"
    instrumented_store = tmp_path / "telemetry.jsonl"
    run_sweep(_sweep(), ResultStore(bare_store))
    run_sweep(
        _sweep(),
        ResultStore(instrumented_store),
        metrics=MetricsRegistry(),
        trace_dir=tmp_path / "traces",
        status_dir=tmp_path / "status",
    )
    assert bare_store.read_bytes() == instrumented_store.read_bytes()
    # The telemetry itself still reached the caller's side channels.
    assert list((tmp_path / "traces").glob("*.trace.jsonl"))
    assert (tmp_path / "status" / "status.json").exists()


def test_sweep_telemetry_is_identical_across_worker_counts(tmp_path):
    registries = {}
    trace_dirs = {}
    for workers in (1, 2):
        registry = MetricsRegistry()
        trace_dir = tmp_path / f"traces-{workers}"
        run_sweep(
            _sweep(),
            ResultStore(tmp_path / f"store-{workers}.jsonl"),
            workers=workers,
            metrics=registry,
            trace_dir=trace_dir,
        )
        registries[workers] = registry
        trace_dirs[workers] = trace_dir
    assert registries[1].to_dict() == registries[2].to_dict()
    files = {
        workers: sorted(path.name for path in trace_dirs[workers].iterdir())
        for workers in (1, 2)
    }
    assert files[1] == files[2] and len(files[1]) == 2
    for name in files[1]:
        assert strip_wall(trace_dirs[1] / name) == strip_wall(trace_dirs[2] / name)


def test_checkpointing_run_counts_snapshots_and_resumes_in_the_registry(tmp_path):
    spec = ExperimentSpec("movielens", SchemeSpec("jwins"), overrides={**TINY, "seed": 1})
    registry = MetricsRegistry()
    spec.run(checkpoint_dir=tmp_path / "ckpts", checkpoint_every=1, observers=(registry,))
    # One snapshot per round at cadence 1; the run started from scratch.
    assert registry.to_dict()["engine_snapshots_captured"]["value"] == TINY["rounds"]
    assert "checkpoint_loads" not in registry.to_dict()

    resumed = MetricsRegistry()
    spec.run(checkpoint_dir=tmp_path / "ckpts", observers=(resumed,))
    assert resumed.to_dict()["checkpoint_loads"]["value"] == 1
