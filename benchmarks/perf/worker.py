"""Runs one workload in this process and prints its measurements as one JSON line.

``run.py`` spawns ``python -m benchmarks.perf.worker <workload> ...`` with the
BLAS thread counts pinned to one, so peak RSS and every timing belong to the
workload alone.  Two modes:

* ``--trace 0`` — a 3-round warm-up (imports, BLAS, gather-matrix caches),
  then identical untraced repeats until ``--seconds`` of measuring are used up
  (at least two, so outputs can be compared).  Produces the end-to-end metrics.
* ``--trace 1`` — the warm-up, then pairs of one untraced reference run and one
  run with the layer wrappers of :mod:`benchmarks.perf.spans` installed, until
  ``--seconds`` are used up.  Produces the per-layer metrics and the tracing
  overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any

import numpy as np

from benchmarks.perf import spans
from benchmarks.perf.stats import describe, per_op_min
from benchmarks.perf.workloads import WORKLOADS, Repeat, SweepWorkload

clock = time.perf_counter

#: Rounds of the untimed warm-up run (the churn-partition preset needs three).
WARMUP_ROUNDS = 3
#: Allowed gap between the traced run's wall time and the sum of its self times.
SUM_TOLERANCE = 0.01


# -- host record ---------------------------------------------------------------------
def calibration_ms() -> float:
    """Best-of-five wall time of a fixed interpreter + numpy loop, in ms.

    The composition is frozen: 200,000 bytecode iterations, five hundred 64x64
    ``matmul``, two hundred ``argpartition`` + ``cumsum`` over 4,096 floats.  It is
    printed before and after the repeats so a reader can tell a slow host from
    a slow commit; no metric is ever rescaled by it (see README.md).
    """

    generator = np.random.default_rng(0)
    matrix = generator.standard_normal((64, 64))
    vector = generator.standard_normal(4096)
    best = float("inf")
    for _ in range(5):
        started = clock()
        total = 0
        for index in range(200000):
            total += index * index % 7
        for _ in range(500):
            matrix @ matrix
        for _ in range(200):
            np.argpartition(vector, 1024)
            np.cumsum(vector)
        best = min(best, clock() - started)
    return best * 1e3


def _filesystem(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (``"unknown"`` off Linux)."""

    best, kind = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text(encoding="utf-8").splitlines()
    except OSError:
        return kind
    resolved = str(path.resolve())
    for line in mounts:
        fields = line.split()
        if len(fields) >= 3 and resolved.startswith(fields[1]) and len(fields[1]) > len(best):
            best, kind = fields[1], fields[2]
    return kind


def host_record(scratch: Path) -> dict[str, Any]:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": os.cpu_count(),
        "scratch_fs": _filesystem(scratch),
    }


# -- measuring -----------------------------------------------------------------------
def _execute(workload: Any, seed: int, scratch: Path, **options: Any) -> Repeat | None:
    """One repeat; an exception is reported and counted, never propagated.

    This is the boundary that must keep running: a crashing repeat has to
    become ``failed`` operations in the result, not a lost result.
    """

    gc.collect()
    try:
        return workload.execute(seed, scratch, **options)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None


def _tally(workload: Any, runs: list[Repeat | None]) -> tuple[int, int, bool]:
    """``(attempted, failed, digests_agree)`` over a set of runs of one workload."""

    attempted = failed = 0
    digests = set()
    for run in runs:
        if run is None:
            attempted += workload.operations  # a crashed repeat fails them all
            failed += workload.operations
        else:
            attempted += run.attempted
            failed += run.failed
            digests.add(run.digest)
    agree = len(digests) <= 1
    if not agree:
        # Outputs that differ between identical runs condemn every operation.
        failed = attempted
    return attempted, failed, agree


def _ms(seconds: list[float]) -> list[float]:
    return [value * 1e3 for value in seconds]


def _round_minima(runs: list[Repeat], name: str = "round") -> list[float]:
    """Per-operation minima over ``runs`` in ms, with steps summed into rounds."""

    minima = _ms(per_op_min([run.ops[name] for run in runs]))
    group = runs[0].steps_per_round if name == "round" else 1
    return [sum(minima[start : start + group]) for start in range(0, len(minima), group)]


def measure_end_to_end(
    workload: Any, seed: int, seconds: float, scratch: Path, **shrink: Any
) -> dict[str, Any]:
    """Untraced repeats for ``seconds`` of wall time; the end-to-end metrics.

    ``shrink`` (``rounds``/``num_nodes``) is for the harness tests only.
    """

    runs: list[Repeat | None] = []
    started = clock()
    while len(runs) < 2 or clock() - started < seconds:
        runs.append(_execute(workload, seed, scratch, **shrink))
    # Read before anything else allocates: the high-water mark of the repeats.
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, agree = _tally(workload, runs)
    good = [run for run in runs if run is not None]
    document: dict[str, Any] = {
        "repeats": len(runs),
        "attempted": attempted,
        "failed": failed,
        "checks": {"digests_agree": agree, "all_repeats_ran": len(good) == len(runs)},
        "digest": good[0].digest if good else None,
        "metrics": {},
        "samples": {},
    }
    if not good:
        return document

    minima = {name: _round_minima(good, name) for name in good[0].ops}
    if "cell" not in minima:
        # A run is one cell.  Its robust time is the sum of its operations'
        # minima, not the minimum of whole runs: a burst of host noise inflates
        # one round in one repeat, and another repeat still has that round clean.
        minima["cell"] = [sum(minima["round"]) + sum(minima["eval"])]
    first = good[0]
    document["samples"] = {name: describe(values) for name, values in minima.items()}
    document["metrics"] = {
        "setup_s": (statistics.median(run.setup_s for run in good), "s"),
        "round_ms_p50": (statistics.median(minima["round"]), "ms"),
        "eval_ms_p50": (statistics.median(minima["eval"]), "ms"),
        "cell_ms_mean": (statistics.fmean(minima["cell"]), "ms"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "wire_bytes_per_node_round": (first.total_bytes / first.node_rounds, "B"),
        "sim_time_s": (first.sim_time_s, "s"),
    }
    return document


def measure_layers(
    workload: Any,
    seed: int,
    seconds: float,
    scratch: Path,
    trace_out: Path | None,
    pool_s: float | None = None,
    **shrink: Any,
) -> dict[str, Any]:
    """Untraced/traced pairs for ``seconds`` of wall time; the per-layer metrics.

    The layer table comes from the least disturbed traced run (smallest wall
    time); the tracing overhead compares operation-wise minima of both sides.
    ``pool_s`` is the sweep's 2-worker pass (``SweepWorkload.pool_seconds``).
    """

    references: list[Repeat | None] = []
    traces: list[Repeat | None] = []
    best: tuple[Repeat, spans.Tracer] | None = None
    started = clock()
    while not traces or clock() - started < seconds:
        references.append(_execute(workload, seed, scratch, **shrink))
        tracer = spans.Tracer()
        installed = spans.install(tracer)
        try:
            traced = _execute(workload, seed, scratch, tracer=tracer, **shrink)
        finally:
            installed.restore()
        traces.append(traced)
        if traced is not None and (best is None or traced.run_s < best[0].run_s):
            best = (traced, tracer)

    attempted, failed, agree = _tally(workload, references + traces)
    good = [run for run in references if run is not None]
    document: dict[str, Any] = {
        "repeats": len(traces),
        "attempted": attempted,
        "failed": failed,
        "checks": {
            "digests_agree": agree,
            "all_repeats_ran": None not in references and None not in traces,
        },
        "digest": good[0].digest if good else None,
        "metrics": {},
    }
    if best is None or not good:
        return document
    traced, tracer = best
    if trace_out is not None:
        tracer.write_jsonl(trace_out)

    metrics = spans.layer_metrics(tracer)
    metrics["simulation.messages_delivered"] = traced.counts["delivered"]
    metrics["simulation.messages_dropped"] = (
        traced.counts["dropped"] + traced.counts["suppressed"]
    )
    metrics["simulation.node_rounds"] = float(traced.node_rounds)
    metrics["simulation.final_accuracy"] = traced.final_accuracy
    forks = per_op_min([run.ops.get("fork", []) for run in good])
    metrics["checkpoint.fork_ms_mean"] = statistics.fmean(_ms(forks)) if forks else 0.0
    metrics["orchestration.pool_speedup"] = (
        min(run.counts["sweep_s"] for run in good) / pool_s if pool_s else 0.0
    )

    # The run is the parentless span that holds the work: the engine's own
    # ``Simulator.run`` for the run workloads, the three segments for the sweep.
    (root,) = tracer.roots(workload.root_span)
    finished = tracer.finished()
    root_s = (finished[root][5] - finished[root][4]) / 1e9
    inside = tracer.by_name(tracer.subtree(root))
    attributed_s = sum(row["self_s"] for row in inside.values())
    # What no wrapper can reach from outside: the engine's own loop (delivery,
    # metering, bookkeeping) and, for the sweep, the orchestrator's.
    unattributed_s = sum(
        inside.get(name, {"self_s": 0.0})["self_s"]
        for name in ("simulation.loop", "orchestration.sweep")
    )
    metrics["trace.unattributed_share"] = unattributed_s / root_s
    timed = "cell" if "cell" in traced.ops else "round"
    metrics["trace.overhead_share"] = (
        statistics.median(_round_minima([run for run in traces if run is not None], timed))
        / statistics.median(_round_minima(good, timed))
        - 1.0
    )
    layers: dict[str, float] = {}
    for name, row in inside.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + row["self_s"] / root_s
    document["checks"]["layers_sum_to_run"] = (
        abs(attributed_s - root_s) <= SUM_TOLERANCE * root_s
    )
    document["run_s"] = root_s
    document["attributed_s"] = attributed_s
    document["layer_share"] = layers
    document["span_table"] = inside
    document["metrics"] = {name: (value, spans.unit_of(name)) for name, value in metrics.items()}
    return document


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    args.scratch.mkdir(parents=True, exist_ok=True)
    host = host_record(args.scratch)
    host["calib_ms_before"] = calibration_ms()
    _execute(workload, args.seed, args.scratch, rounds=WARMUP_ROUNDS)
    if args.trace:
        pool_s = (
            workload.pool_seconds(args.seed, args.scratch)
            if isinstance(workload, SweepWorkload)
            else None
        )
        document = measure_layers(
            workload, args.seed, args.seconds, args.scratch, args.trace_out, pool_s
        )
    else:
        document = measure_end_to_end(workload, args.seed, args.seconds, args.scratch)
    host["calib_ms_after"] = calibration_ms()
    host["calib_drift"] = host["calib_ms_after"] / host["calib_ms_before"]
    document.update(workload=args.workload, seed=args.seed, trace=args.trace, host=host)
    document["correct"] = (
        bool(document["metrics"])
        and document["failed"] == 0
        and all(document["checks"].values())
    )
    print(json.dumps(document))
    return 0 if document["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
