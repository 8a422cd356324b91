"""The repo's benchmark: five workloads, end-to-end metrics and a layer trace.

Two ways to call it, from the root of a checkout:

``python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1``
    One workload, one mode; the last line of stdout is one JSON object with
    ``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
    metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).
    This is the form BENCHMARK.json names.

``python3 benchmarks/perf/run.py [--aa] [--out DIR] [--only W ...]``
    Every workload in both modes, each in its own subprocess: prints every
    metric by name with its unit, the per-layer self-time table of each traced
    run and a JSON summary ending in ``"claim": null``; exits non-zero when an
    output check fails.  ``--aa`` runs the end-to-end pass twice and compares
    the two against the bounds in BENCHMARK.json.

Scratch files live under ``.bench_scratch/`` in the checkout (git-ignored) and
are removed before exit; nothing else is written unless ``--out DIR`` is given.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]
SOURCE = ROOT / "src"
#: One worker may take this long before it is killed (the contract allows 180 s).
WORKER_TIMEOUT_S = 170

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.perf.stats import relative_change  # noqa: E402  (needs ROOT on sys.path)


def load_contract() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_worker(
    workload: str,
    seed: int,
    seconds: float,
    trace: int,
    scratch: Path,
    trace_out: Path | None = None,
) -> dict[str, Any] | None:
    """Run one worker subprocess to completion; its JSON document, or ``None``.

    One Python thread plus one BLAS thread keeps the numbers about the
    program and fixes the BLAS reduction order; ``PYTHONHASHSEED`` is pinned so
    no set ordering can differ between repeats.
    """

    environment = dict(os.environ)
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        environment[variable] = "1"
    environment["PYTHONHASHSEED"] = "0"
    environment["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(SOURCE)])
    command = [
        sys.executable,
        "-m",
        "benchmarks.perf.worker",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
        "--scratch",
        str(scratch),
    ]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    process = subprocess.Popen(
        command, cwd=ROOT, env=environment, stdout=subprocess.PIPE, text=True
    )
    try:
        output, _ = process.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        print(f"worker for {workload} timed out", file=sys.stderr)
        return None
    lines = output.strip().splitlines()
    if not lines:
        print(f"worker for {workload} printed no result", file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"worker for {workload} printed no JSON result", file=sys.stderr)
        return None


def contract_result(document: dict[str, Any]) -> dict[str, Any]:
    """The four-key result object the benchmark contract asks for."""

    return {
        "correct": bool(document["correct"]),
        "attempted": max(1, int(document["attempted"])),
        "failed": int(document["failed"]),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in document["metrics"].items()
        },
    }


# -- the full, human-facing run ----------------------------------------------------------
def _print_end_to_end(document: dict[str, Any]) -> None:
    host = document["host"]
    print(
        f"\n== {document['workload']} (seed {document['seed']}, "
        f"{document['repeats']} repeats, {document['attempted']} operations, "
        f"{document['failed']} failed)"
    )
    print(
        f"   host: python {host['python']}, numpy {host['numpy']}, blas {host['blas']}, "
        f"nproc {host['nproc']}, scratch on {host['scratch_fs']}; "
        f"host_calib_ms {host['calib_ms_before']:.2f} -> {host['calib_ms_after']:.2f} "
        f"(drift x{host['calib_drift']:.2f})"
    )
    for name, (value, unit) in document["metrics"].items():
        print(f"   {name:28s} {value:14.6g} {unit}")
    for name, row in document["samples"].items():
        tail = (
            ""
            if row["tail_percentile"] is None
            else f", p{row['tail_percentile']:.0f} {row['tail_value']:.3f} ms"
        )
        print(f"   {name + ' ms':28s} median {row['median']:.3f}{tail}, n={row['samples']}")


def _print_layers(document: dict[str, Any]) -> None:
    run_s = document["run_s"]
    print(
        f"\n-- {document['workload']}: traced run {run_s:.3f} s, "
        f"self times sum to {document['attributed_s']:.3f} s"
    )
    print(f"   {'span':30s} {'calls':>8s} {'self s':>10s} {'share':>7s}")
    rows = sorted(document["span_table"].items(), key=lambda item: -item[1]["self_s"])
    for name, row in rows:
        print(
            f"   {name:30s} {int(row['calls']):8d} {row['self_s']:10.4f} "
            f"{row['self_s'] / run_s:7.1%}"
        )
    for name, (value, unit) in document["metrics"].items():
        print(f"   {name:36s} {value:14.6g} {unit}")


def _compare(
    contract: dict[str, Any], first: dict[str, Any], second: dict[str, Any]
) -> list[dict[str, Any]]:
    """A/A rows: how much worse the second pass read, next to each bound."""

    rows = []
    for workload, before in first.items():
        after = second[workload]
        for metric in contract["end_to_end"]:
            name = metric["name"]
            change = relative_change(
                before["metrics"][name][0], after["metrics"][name][0], metric["better"]
            )
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "first": before["metrics"][name][0],
                    "second": after["metrics"][name][0],
                    "worse_by": change,
                    "bound": metric["bound"],
                    "within": change <= metric["bound"],
                }
            )
    return rows


def full_run(args: argparse.Namespace, scratch: Path) -> int:
    contract = load_contract()
    names = args.only or [workload["name"] for workload in contract["workloads"]]
    out = None if args.out is None else Path(args.out)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    seconds = float(contract["run_seconds"])
    passes: list[dict[str, Any]] = []
    layers: dict[str, Any] = {}
    ok = True
    for index in range(2 if args.aa else 1):
        current: dict[str, Any] = {}
        for name in names:
            document = run_worker(name, args.seed, seconds, 0, scratch)
            if document is None or not document["correct"]:
                ok = False
            if document is not None and document["metrics"]:
                current[name] = document
                _print_end_to_end(document)
        passes.append(current)
    for name in names:
        trace_out = None if out is None else out / f"trace_{name}.jsonl"
        document = run_worker(name, args.seed, seconds, 1, scratch, trace_out)
        if document is None or not document["correct"]:
            ok = False
        if document is not None and document["metrics"]:
            layers[name] = document
            _print_layers(document)
            # Same seed, same program: the traced outputs must match the repeats'.
            if name in passes[0] and passes[0][name]["digest"] != document["digest"]:
                print(f"{name}: traced and untraced digests differ", file=sys.stderr)
                ok = False

    summary: dict[str, Any] = {
        "seed": args.seed,
        "end_to_end": passes[0],
        "per_layer": layers,
    }
    if args.aa:
        rows = _compare(contract, passes[0], passes[1]) if len(passes[1]) == len(names) else []
        print(f"\n== A/A: second pass against the first, same checkout, seed {args.seed}")
        print(f"   {'workload':16s} {'metric':28s} {'worse by':>9s} {'bound':>7s}")
        for row in rows:
            flag = "" if row["within"] else "  EXCEEDS"
            print(
                f"   {row['workload']:16s} {row['metric']:28s} "
                f"{row['worse_by']:+9.2%} {row['bound']:7.2%}{flag}"
            )
        summary["aa"] = rows
        ok = ok and bool(rows) and all(row["within"] for row in rows)
    summary["correct"] = ok
    # This benchmark measures; it never claims.  A change that claims a gain
    # reports its own paired runs (README.md, "Claiming a gain").
    summary["claim"] = None
    if out is not None:
        (out / "results.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
        print(f"\nresults and traces written to {out}")
    print("\n" + json.dumps(summary))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="run one workload and print the contract's JSON result")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--aa", action="store_true", help="run the end-to-end pass twice and compare")
    parser.add_argument("--out", default=None, help="directory for results.json and trace_*.jsonl")
    parser.add_argument("--only", nargs="+", default=None, help="full run over these workloads only")
    args = parser.parse_args(argv)

    if not (SOURCE / "repro").is_dir():
        print(f"no program to measure: {SOURCE / 'repro'} is missing", file=sys.stderr)
        return 2
    scratch = ROOT / ".bench_scratch" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload is None:
            return full_run(args, scratch)
        seconds = args.seconds if args.seconds is not None else load_contract()["run_seconds"]
        document = run_worker(args.workload, args.seed, seconds, args.trace, scratch)
        if document is None or not document["metrics"]:
            return 1
        print(json.dumps(contract_result(document)))
        return 0 if document["correct"] else 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()  # only when no concurrent run still uses it
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
