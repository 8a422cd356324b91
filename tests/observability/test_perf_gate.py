"""The perf regression gate: scripts/check_perf.py exit codes and output."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
CHECK_PERF = REPO_ROOT / "scripts" / "check_perf.py"


def _document(train: float, total: float, rss: int = 100 * 2**20) -> dict:
    return {
        "version": 1,
        "area": "engine",
        "phases": {
            "sync_smoke": {
                "total_seconds": total,
                "phase_seconds": {"train": train, "aggregate": 0.002},
                "peak_rss_bytes": rss,
            }
        },
    }


def _run(tmp_path: Path, baseline: dict | None, current: dict, *extra: str):
    current_path = tmp_path / "current.json"
    current_path.write_text(json.dumps(current), encoding="utf-8")
    baseline_path = tmp_path / "baseline.json"
    if baseline is not None:
        baseline_path.write_text(json.dumps(baseline), encoding="utf-8")
    return subprocess.run(
        [
            sys.executable, str(CHECK_PERF),
            "--current", str(current_path),
            "--baseline", str(baseline_path),
            *extra,
        ],
        capture_output=True,
        text=True,
    )


def test_unchanged_timings_pass(tmp_path):
    document = _document(train=0.5, total=1.0)
    completed = _run(tmp_path, document, document)
    assert completed.returncode == 0, completed.stdout
    assert "perf gate OK" in completed.stdout


def test_regression_beyond_threshold_fails_with_readable_diff(tmp_path):
    completed = _run(
        tmp_path, _document(train=0.5, total=1.0), _document(train=0.8, total=1.3)
    )
    assert completed.returncode == 1
    assert "REGRESSION" in completed.stdout
    assert "sync_smoke/train" in completed.stdout
    assert "--update" in completed.stdout  # tells the dev how to accept it


def test_tiny_timings_are_exempt_from_the_threshold(tmp_path):
    # 2ms -> 3ms is +50% but under the floor: jitter, not a regression.
    completed = _run(
        tmp_path, _document(train=0.002, total=0.004), _document(train=0.003, total=0.004)
    )
    assert completed.returncode == 0, completed.stdout
    assert "exempt" in completed.stdout


def test_improvements_never_fail(tmp_path):
    completed = _run(
        tmp_path, _document(train=0.5, total=1.0), _document(train=0.2, total=0.5)
    )
    assert completed.returncode == 0
    assert "improved" in completed.stdout


def test_phases_missing_from_the_baseline_are_skipped(tmp_path):
    current = _document(train=99.0, total=99.0)
    current["phases"]["brand_new"] = current["phases"].pop("sync_smoke")
    completed = _run(tmp_path, _document(train=0.5, total=1.0), current)
    assert completed.returncode == 0
    assert "without a baseline" in completed.stdout


def test_update_writes_the_snapshot(tmp_path):
    # --update writes --baseline and nothing else: the committed repo-root perf
    # trajectory belongs to `scripts/ci.sh perf` alone.
    trajectory = REPO_ROOT / "BENCH_engine.json"
    trajectory_before = trajectory.read_bytes()
    current = _document(train=0.5, total=1.0)
    completed = _run(tmp_path, None, current, "--update")
    assert completed.returncode == 0
    written = json.loads((tmp_path / "baseline.json").read_text(encoding="utf-8"))
    assert written == current
    assert trajectory.read_bytes() == trajectory_before


def test_missing_baseline_is_a_clear_error(tmp_path):
    completed = _run(tmp_path, None, _document(train=0.5, total=1.0))
    assert completed.returncode != 0
    assert "--update" in completed.stderr + completed.stdout


def test_committed_snapshot_exists_and_covers_smoke_phases():
    # The CI perf stage benchmarks under ENGINE_BENCH_SMOKE=1; the committed
    # snapshot must hold the smoke phase keys or the stage compares nothing.
    snapshot = json.loads(
        (REPO_ROOT / "benchmarks" / "BENCH_engine.snapshot.json").read_text(
            encoding="utf-8"
        )
    )
    assert {"sync_smoke", "async_smoke"} <= set(snapshot["phases"])
