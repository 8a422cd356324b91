#!/usr/bin/env python
"""Perf regression gate: diff a BENCH_*.json document against its snapshot.

The engine benchmark (``benchmarks/test_engine_perf.py``) writes wall-clock
timings into ``benchmarks/output/BENCH_engine.json``; this script compares
them against the committed per-PR snapshot and exits non-zero when any
shared timing regressed by more than ``--threshold`` (default 20%).

Rules that keep the gate honest on noisy runners:

* only phases present in **both** documents are compared (a smoke run is
  never judged against a full-size baseline — they use distinct phase keys);
* timings where both sides are under ``--min-seconds`` are exempt (a 2 ms ->
  3 ms jitter is not a regression);
* improvements and RSS deltas are reported but never fail the gate.

Refresh the snapshot after an intentional perf change::

    python scripts/check_perf.py --update
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CURRENT = REPO_ROOT / "benchmarks" / "output" / "BENCH_engine.json"
DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "BENCH_engine.snapshot.json"


def load_document(path: Path, role: str) -> dict:
    if not path.exists():
        raise SystemExit(
            f"{role} document {path} does not exist"
            + (
                "; run the engine benchmark first "
                "(PYTHONPATH=src python -m pytest benchmarks/test_engine_perf.py)"
                if role == "current"
                else "; create it with --update after a benchmark run"
            )
        )
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise SystemExit(f"{role} document {path} is not valid JSON: {error}")
    if not isinstance(document, dict) or "phases" not in document:
        raise SystemExit(f"{role} document {path} has no 'phases' section")
    return document


def timing_pairs(baseline_phase: dict, current_phase: dict) -> list[tuple[str, float, float]]:
    """The (metric, baseline, current) wall-clock pairs shared by one phase."""

    pairs = []
    for key in ("total_seconds",):
        base_value, cur_value = baseline_phase.get(key), current_phase.get(key)
        if isinstance(base_value, (int, float)) and isinstance(cur_value, (int, float)):
            pairs.append((key, float(base_value), float(cur_value)))
    base_phases = baseline_phase.get("phase_seconds") or {}
    cur_phases = current_phase.get("phase_seconds") or {}
    for name in sorted(set(base_phases) & set(cur_phases)):
        base_value, cur_value = base_phases[name], cur_phases[name]
        if isinstance(base_value, (int, float)) and isinstance(cur_value, (int, float)):
            pairs.append((name, float(base_value), float(cur_value)))
    return pairs


def compare(
    baseline: dict, current: dict, threshold: float, min_seconds: float
) -> tuple[list[str], list[str]]:
    """Render the diff; returns ``(report lines, regression descriptions)``."""

    lines: list[str] = []
    regressions: list[str] = []
    shared = sorted(set(baseline["phases"]) & set(current["phases"]))
    uncompared = sorted(set(current["phases"]) - set(baseline["phases"]))
    if uncompared:
        lines.append(
            f"phases without a baseline (not compared): {', '.join(uncompared)}"
        )
    if not shared:
        lines.append("no phases shared with the baseline; nothing to compare")
        return lines, regressions

    header = f"{'phase':<14s} {'metric':<14s} {'baseline':>10s} {'current':>10s} {'delta':>8s}  verdict"
    lines.append(header)
    lines.append("-" * len(header))
    for phase in shared:
        baseline_phase, current_phase = baseline["phases"][phase], current["phases"][phase]
        for metric, base_value, cur_value in timing_pairs(baseline_phase, current_phase):
            delta = (cur_value - base_value) / base_value if base_value > 0 else 0.0
            if max(base_value, cur_value) < min_seconds:
                verdict = "exempt (tiny)"
            elif base_value > 0 and cur_value > base_value * (1.0 + threshold):
                verdict = "REGRESSION"
                regressions.append(
                    f"{phase}/{metric}: {base_value:.3f}s -> {cur_value:.3f}s "
                    f"(+{100 * delta:.0f}%, threshold +{100 * threshold:.0f}%)"
                )
            elif cur_value < base_value * (1.0 - threshold):
                verdict = "improved"
            else:
                verdict = "ok"
            lines.append(
                f"{phase:<14s} {metric:<14s} {base_value:>9.3f}s {cur_value:>9.3f}s "
                f"{100 * delta:>+7.1f}%  {verdict}"
            )
        base_rss = baseline_phase.get("peak_rss_bytes")
        cur_rss = current_phase.get("peak_rss_bytes")
        if isinstance(base_rss, (int, float)) and isinstance(cur_rss, (int, float)) and base_rss:
            lines.append(
                f"{phase:<14s} {'peak_rss':<14s} {base_rss / 2**20:>8.1f}Mi {cur_rss / 2**20:>8.1f}Mi "
                f"{100 * (cur_rss - base_rss) / base_rss:>+7.1f}%  informational"
            )
    return lines, regressions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--current", type=Path, default=DEFAULT_CURRENT,
        help="freshly benchmarked document (default: benchmarks/output/BENCH_engine.json)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=DEFAULT_BASELINE,
        help="committed snapshot (default: benchmarks/BENCH_engine.snapshot.json)",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.20,
        help="fractional slowdown that fails the gate (default 0.20 = +20%%)",
    )
    parser.add_argument(
        "--min-seconds", type=float, default=0.05,
        help="timings where both sides are under this floor are exempt",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="copy the current document over the baseline and exit",
    )
    args = parser.parse_args(argv)

    current = load_document(args.current, "current")
    if args.update:
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(args.current, args.baseline)
        print(
            f"snapshot updated: {args.baseline} now holds "
            f"{len(current['phases'])} phase(s) ({', '.join(sorted(current['phases']))})"
        )
        return 0
    baseline = load_document(args.baseline, "baseline")

    lines, regressions = compare(baseline, current, args.threshold, args.min_seconds)
    print(f"perf gate: {args.current} vs {args.baseline}")
    for line in lines:
        print(line)
    if regressions:
        print()
        print(f"perf gate FAILED: {len(regressions)} regression(s)")
        for description in regressions:
            print(f"  {description}")
        print(
            "if the slowdown is intentional, refresh the snapshot with "
            "`python scripts/check_perf.py --update` and commit it"
        )
        return 1
    print("perf gate OK: no timing regressed beyond the threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
