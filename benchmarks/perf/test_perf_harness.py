"""Tests of the benchmark harness itself (collected by the tier-1 suite).

They pin the arithmetic the benchmark's numbers rest on — span self times, the
per-operation min-of-k estimator, the tail-percentile rule — and the promises
it makes to the rest of the repo: wrappers are gone after a traced run, traced
and untraced runs produce the same outputs, every layer boundary a workload is
meant to exercise actually fires, BENCHMARK.json names exactly what the worker
emits, and a run leaves the working tree untouched.  Everything is written
under ``tmp_path``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.perf import spans, stats, worker  # noqa: E402
from benchmarks.perf.workloads import WORKLOADS  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Shrunk sizes for the short builds (churn-partition needs three rounds).
SHORT = {
    "conv8_sync": {"rounds": 2},
    "wide4_sync": {"rounds": 1},
    "mlp1k_arena": {"rounds": 2, "num_nodes": 64},
    "gossip64_async": {"rounds": 3},
    "sweep8_ckpt": {"rounds": 1},
}

#: Span names every JWINS run must fire (README.md, per-layer table).
RUN_SPANS = {
    "datasets.batch",
    "nn.forward",
    "nn.backward",
    "nn.loss",
    "nn.optim_step",
    "wavelets.forward",
    "wavelets.inverse",
    "sparsification.topk",
    "compression.index_encode",
    "compression.float_compress",
    "core.ranking",
    "core.prepare",
    "core.average",
    "core.aggregate",
    "topology.rewire",
    "scenarios.state_at",
    "simulation.make_context",
    "simulation.evaluate",
    "simulation.loop",
}
SWEEP_SPANS = RUN_SPANS | {
    "simulation.local_training",
    "simulation.build",
    "checkpoint.capture",
    "checkpoint.save",
    "checkpoint.load",
    "checkpoint.restore",
    "orchestration.spec_build",
    "orchestration.store_put",
    "orchestration.store_open",
    "orchestration.reread",
    "orchestration.sweep",
}
EXPECTED_SPANS = {
    "conv8_sync": RUN_SPANS | {"simulation.local_training"},
    "wide4_sync": RUN_SPANS | {"simulation.local_training"},
    # The arena mode inlines local training step-major; no per-node call exists.
    "mlp1k_arena": RUN_SPANS,
    "gossip64_async": RUN_SPANS | {"simulation.local_training"},
    "sweep8_ckpt": SWEEP_SPANS,
}


def fake_clock(step: int = 10):
    """A clock that advances ``step`` ns every time it is read."""

    state = {"now": -step}

    def read() -> int:
        state["now"] += step
        return state["now"]

    return read


# -- span arithmetic -----------------------------------------------------------------
def test_self_time_of_nested_spans_on_a_fake_clock():
    tracer = spans.Tracer(clock=fake_clock())
    inner = tracer.wrap(lambda: None, "inner")

    def outer_body():
        inner()
        inner()

    tracer.wrap(outer_body, "outer")()
    # outer: 0..50, inner: 10..20 and 30..40
    assert [span[4:] for span in tracer.finished()] == [(0, 50), (10, 20), (30, 40)]
    assert tracer.self_times() == [30, 10, 10]
    table = tracer.by_name()
    assert table["outer"] == {"calls": 1, "self_s": 30e-9, "total_s": 50e-9}
    assert table["inner"]["calls"] == 2 and table["inner"]["self_s"] == pytest.approx(20e-9)
    assert sum(tracer.self_times()) == 50  # self times sum to the root


def test_self_time_of_recursive_spans_on_a_fake_clock():
    tracer = spans.Tracer(clock=fake_clock())

    def countdown(depth: int) -> int:
        return 0 if depth == 0 else 1 + traced(depth - 1)

    traced = tracer.wrap(countdown, "recursive")
    assert traced(2) == 2
    finished = tracer.finished()
    assert [span[1] for span in finished] == [-1, 0, 1]  # each level parents the next
    assert [span[5] - span[4] for span in finished] == [50, 30, 10]
    assert tracer.self_times() == [20, 20, 10]
    assert tracer.by_name()["recursive"]["self_s"] == pytest.approx(50e-9)
    assert tracer.subtree(1) == [1, 2]


def test_spans_carry_the_round_they_started_in_and_survive_exceptions():
    tracer = spans.Tracer(clock=fake_clock())

    def boom():
        raise ValueError("x")

    with tracer.span("first"):
        pass
    tracer.next_round()
    with pytest.raises(ValueError):
        tracer.wrap(boom, "second")()
    assert [(span[2], span[3]) for span in tracer.finished()] == [("first", 0), ("second", 1)]


def test_counter_hooks_run_outside_the_span():
    tracer = spans.Tracer(clock=fake_clock())
    seen = []
    wrapped = tracer.wrap(lambda x: x * 2, "double", lambda t, result, args: seen.append((result, args)))
    assert wrapped(4) == 8
    assert seen == [(8, (4,))]
    assert tracer.finished()[0][4:] == (0, 10)  # the hook read no clock inside the span


# -- estimators ------------------------------------------------------------------------
def test_per_operation_minimum_over_repeats():
    assert stats.per_op_min([[3, 1, 2], [2, 2, 2], [4, 0.5, 9]]) == [2, 0.5, 2]
    with pytest.raises(ValueError):
        stats.per_op_min([[1, 2], [1, 2, 3]])
    with pytest.raises(ValueError):
        stats.per_op_min([])


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert stats.tail_percentile(list(range(20))) is None  # would not clear the median
    hundred = [float(v) for v in range(100, 0, -1)]
    percentile, value = stats.tail_percentile(hundred)
    assert percentile == 90.0
    assert sum(1 for sample in hundred if sample > value) == 10
    percentile, value = stats.tail_percentile(list(range(21)))
    assert value == 10 and percentile == pytest.approx(100 * 11 / 21)
    row = stats.describe(hundred)
    assert row["median"] == 50.5 and row["samples"] == 100 and row["tail_percentile"] == 90.0
    assert stats.describe([])["median"] is None


def test_regression_is_signed_in_the_metric_s_own_direction():
    assert stats.relative_change(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert stats.relative_change(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert stats.relative_change(0.5, 0.4, "higher") == pytest.approx(0.2)


# -- install / restore -----------------------------------------------------------------
def test_install_wraps_every_binding_and_restore_is_identity_exact():
    import repro.core.jwins
    import repro.sparsification.topk
    from repro.checkpoint.snapshot import SimulationSnapshot
    from repro.simulation.engine import Simulator

    original_topk = repro.sparsification.topk.topk_indices
    original_run = vars(Simulator)["run"]
    original_load = vars(SimulationSnapshot)["load"]
    tracer = spans.Tracer()
    installed = spans.install(tracer)
    try:
        patched = list(installed.patched)
        assert len(patched) > 40
        # The importing module's own binding is wrapped too, not just the definition.
        assert repro.core.jwins.topk_indices is not original_topk
        assert repro.core.jwins.topk_indices is repro.sparsification.topk.topk_indices
        assert vars(Simulator)["run"].__wrapped__ is original_run
        assert isinstance(vars(SimulationSnapshot)["load"], classmethod)
        for owner, attribute, original in patched:
            assert vars(owner)[attribute] is not original
    finally:
        installed.restore()
    assert not installed.patched
    for owner, attribute, original in patched:
        assert vars(owner)[attribute] is original, (owner, attribute)
    assert repro.core.jwins.topk_indices is original_topk
    assert vars(Simulator)["run"] is original_run
    assert vars(SimulationSnapshot)["load"] is original_load


# -- short builds of the five workloads -------------------------------------------------
def _git_status() -> str | None:
    try:
        return subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None  # not a git checkout, or no git: nothing to compare


@pytest.fixture(scope="module")
def short_runs(tmp_path_factory):
    """One untraced/traced pair of every workload at its short size."""

    scratch = tmp_path_factory.mktemp("perf_scratch")
    before = _git_status()
    documents = {}
    for name, workload in WORKLOADS.items():
        documents[name] = worker.measure_layers(
            workload, 5, 0.0, scratch, scratch / f"trace_{name}.jsonl", None, **SHORT[name]
        )
    documents["conv8_sync/end_to_end"] = worker.measure_end_to_end(
        WORKLOADS["conv8_sync"], 5, 0.0, scratch, **SHORT["conv8_sync"]
    )
    return {"documents": documents, "before": before, "after": _git_status(), "scratch": scratch}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_short_build_fires_every_span_its_layers_own(short_runs, name):
    document = short_runs["documents"][name]
    assert EXPECTED_SPANS[name] <= set(document["span_table"]), (
        EXPECTED_SPANS[name] - set(document["span_table"])
    )
    for span_name in EXPECTED_SPANS[name]:
        assert document["span_table"][span_name]["calls"] >= 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_outputs_are_identical_and_layers_sum_to_the_run(short_runs, name):
    document = short_runs["documents"][name]
    assert document["failed"] == 0 and document["attempted"] >= 1
    assert document["checks"] == {
        "digests_agree": True,
        "all_repeats_ran": True,
        "layers_sum_to_run": True,
    }
    # Exact by construction: self times partition the root span.
    assert document["attributed_s"] == pytest.approx(document["run_s"], rel=1e-9)
    assert sum(document["layer_share"].values()) == pytest.approx(1.0)
    trace = (short_runs["scratch"] / f"trace_{name}.jsonl").read_text().splitlines()
    assert json.loads(trace[0])["name"] == "setup"
    assert "counters" in json.loads(trace[-1])


def test_scenarios_and_topology_only_work_on_the_gossip_workload(short_runs):
    for name in WORKLOADS:
        share = short_runs["documents"][name]["layer_share"]
        busy = share.get("scenarios", 0.0) + share.get("topology", 0.0)
        assert (busy > 0.01) == (name == "gossip64_async"), (name, busy)


def test_wrappers_are_gone_after_the_traced_runs(short_runs):
    from repro.core.jwins import JwinsScheme
    from repro.simulation.engine import Simulator
    from repro.wavelets.transform import WaveletTransform

    for owner, attribute in (
        (Simulator, "run"),
        (JwinsScheme, "prepare"),
        (WaveletTransform, "forward"),
    ):
        assert not hasattr(vars(owner)[attribute], "__wrapped__")


def test_a_run_leaves_the_working_tree_untouched(short_runs):
    if short_runs["before"] is None:
        pytest.skip("not a git checkout")
    assert short_runs["after"] == short_runs["before"]
    leftovers = [path.name for path in short_runs["scratch"].iterdir() if path.is_dir()]
    assert leftovers == []  # every store and checkpoint directory was removed


# -- the contract file -------------------------------------------------------------------
def test_benchmark_json_names_exactly_what_the_worker_emits(short_runs):
    documents = short_runs["documents"]
    assert [(w["name"], w["why"]) for w in CONTRACT["workloads"]] == [
        (workload.name, workload.why) for workload in WORKLOADS.values()
    ]
    emitted = documents["conv8_sync/end_to_end"]["metrics"]
    assert {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]} == {
        name: unit for name, (_, unit) in emitted.items()
    }
    assert all(value != 0 for value, _ in emitted.values())  # never-zero rule
    assert 0 < max(m["bound"] for m in CONTRACT["end_to_end"]) <= 0.25
    declared = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    for name in WORKLOADS:
        assert declared == {
            metric: unit for metric, (_, unit) in documents[name]["metrics"].items()
        }
    assert CONTRACT["paths"] == ["benchmarks/perf"]


def test_the_command_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "benchmarks" / "perf",
        tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    finished = subprocess.run(
        [sys.executable, *CONTRACT["command"][1:], "--workload", "conv8_sync",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert finished.returncode != 0
    assert finished.stdout.strip() == ""
