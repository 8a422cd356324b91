#!/usr/bin/env bash
# Continuous-integration entry point, split into named stages:
#
#   scripts/ci.sh                  # run every stage, in order
#   scripts/ci.sh lint test        # run a subset, in the given order
#
# Stages:
#   lint         byte-compile every python tree (fast syntax gate)
#   analysis     repro.analysis static-analysis gate (determinism &
#                serialization rules over src/ and the markdown docs; every
#                finding fails), then a synthetic violation that must be
#                reported under API001 and DET002
#   docs         documentation link check (the DOC001 analysis rule alone)
#   test         the tier-1 pytest suite (tests + benchmark harness); fails
#                when the run changed `git status --porcelain` (hermeticity)
#   gradcheck    finite-difference check of every model's analytic gradients
#                (scripts/gradcheck.py, ~2 s)
#   bench        codec throughput benchmark in smoke mode
#   smoke        pinned CLI spec hashes / `sweep --dry-run` expansion first,
#                then the registry listings and a dry run of every scenario
#                preset at 1 and at 3 rounds, async gossip example + orchestration sweep resume
#                smoke (every scheme the CLI pins) + fig7 preset sweep and
#                `regenerate` + live status.json heartbeat smoke (2-worker
#                sweep, `top`)
#   determinism  a churn+partition sweep (sync and async cells) run twice,
#                in separate processes: the JSONL stores must be byte-for-byte
#                identical and so must every wall-stripped cell trace (a
#                mismatch prints a forensic trace diff: first divergent
#                record, field drift, causal backtrace); then the fuzzer's
#                nine pinned cases through all five oracles (1 vs 2 workers,
#                interrupt-resume through the snapshot file, arena vs
#                pernode, 24 movielens nodes with and without a
#                budget, 20 cifar10 nodes in two JWINS passes); then an
#                8-node cifar10 cell under OPENBLAS_NUM_THREADS=1 and =2,
#                whose stores must be byte-identical
#   checkpoint   SIGINT a 2-cell pool sweep mid-spec, resume it, and
#                byte-compare the store's rows against an uninterrupted run
#                (the fourth determinism pillar), plus dry-run/compact smokes,
#                a checkpointing `run` -> `run --resume-from` -> `fork`
#                -> `trace summarize` chain, and a torn-snapshot smoke (a
#                truncated snapshot must make `fork` exit with the refusal
#                message, not a traceback; a version-4 JSON snapshot is
#                refused by its number)
#   fuzz         fixed-seed scenario-fuzz smoke, 10 cases under jwins and 4
#                under choco (a stateful baseline through the event loop's
#                one-row encode/aggregate calls): every generated hostile
#                schedule must pass the five oracles: rerun (results and
#                wall-stripped traces), F_start-invariant (JWINS's cached
#                start coefficients = DWT of the model at every round end),
#                1-vs-2-worker, interrupt-resume (through the snapshot
#                file the pause wrote) and arena-vs-pernode (a
#                failing case prints its JSON schedule for local replay, with
#                the trace diff of the runs that failed), plus the
#                injected-nondeterminism self-test, which must also
#                root-cause the injected bug via the forensic trace differ
#   reach        scripts/reach.py: run the figure benchmarks, examples, perf
#                workloads and the stages above under a profile hook, and fail
#                on any src/ function none of them enters that
#                scripts/reach_allowlist.txt does not list with a reason (or
#                on an allowlist entry that is now entered or gone)
#
# Each stage prints its wall-clock time on success.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

CI_TMP="$(mktemp -d)"
trap 'rm -rf "$CI_TMP"' EXIT

stage_lint() {
  python -m compileall -q src benchmarks examples scripts tests
}

stage_analysis() {
  python -m repro.analysis src README.md docs

  # The gate must also fail: a file shaped like an operator-facing module,
  # with an undocumented public method and a wall-clock read, must be
  # reported under both rules.
  local bad="$CI_TMP/analysis/src/repro/orchestration/smoke.py"
  mkdir -p "$(dirname "$bad")"
  printf 'import time\n\n\nclass Public:\n    def method(self):\n        return time.time()\n' >"$bad"
  python -m repro.analysis --list-rules >/dev/null
  if python -m repro.analysis "$bad" >"$CI_TMP/analysis.txt"; then
    echo "analysis gate FAILED: a known violation was not reported" >&2
    return 1
  fi
  local rule
  for rule in API001 DET002; do
    if ! grep -q ": $rule: " "$CI_TMP/analysis.txt"; then
      echo "analysis gate FAILED: $rule not reported:" >&2
      cat "$CI_TMP/analysis.txt" >&2
      return 1
    fi
  done
}

stage_docs() {
  python -m repro.analysis --rule DOC001 README.md docs
}

stage_test() {
  # Hermeticity: the suite must leave the working tree as it found it.
  # Compared before/after, so a developer's own uncommitted edits pass.
  local before after
  before="$(git status --porcelain)"
  python -m pytest -x -q
  after="$(git status --porcelain)"
  if [[ "$before" != "$after" ]]; then
    echo "tier-1 run changed the working tree:" >&2
    diff <(echo "$before") <(echo "$after") >&2 || true
    return 1
  fi
}

stage_gradcheck() {
  python scripts/gradcheck.py
}

stage_bench() {
  # The tier-1 suite already runs the throughput benchmark at full size; this
  # pass exercises the CODEC_THROUGHPUT_SMOKE env path (what slow CI runners
  # use) so a broken smoke mode cannot land silently.
  CODEC_THROUGHPUT_SMOKE=1 python -m pytest benchmarks/test_codec_throughput.py -q
}

stage_smoke() {
  # Before any cell runs: a drifted flag -> spec mapping moves content hashes,
  # so the pinned `run` spec hashes and `sweep --dry-run` expansion (hashes,
  # resolved seeds, labels) fail here in about a second.
  python -m pytest -q tests/test_cli_pins.py -k "spec_identity or dry_run"

  python -m repro.cli --list-workloads --list-schemes --list-scenarios >/dev/null
  # Every preset resolves for a 4-node deployment of 1 and of 3 rounds (the
  # dry run builds each cell); a 1-round run is too short for any window.
  local rounds
  for rounds in 1 3; do
    python -m repro.cli sweep --workload movielens --scheme jwins --nodes 4 --degree 2 \
        --rounds "$rounds" --scenario static dynamic small-world churn partition stragglers \
        churn-partition byzantine --store "$CI_TMP/scenarios.jsonl" --dry-run >/dev/null
  done

  python examples/async_gossip.py --smoke
  python examples/churn_partition.py --smoke

  local sweep_args=(--workload movielens --scheme jwins full-sharing jwins-adaptive quantized
                    --nodes 4 --degree 2 --rounds 2 --seeds 3)
  python -m repro.cli sweep "${sweep_args[@]}" --store "$CI_TMP/smoke.jsonl" --workers 1
  # Resuming against the store must skip every completed cell (and mark each
  # skipped on the status board).
  local resume_output
  resume_output="$(python -m repro.cli sweep "${sweep_args[@]}" --store "$CI_TMP/smoke.jsonl" \
      --workers 2 --status "$CI_TMP/resume-status")"
  grep -q "executed 0 cell(s), skipped 4" <<<"$resume_output"

  # A preset sweep and its figure regenerated from the store (the --scale
  # overrides must match the sweep's, or the cells are not found).
  local fig7_scale=(num_nodes=4 degree=2 rounds=2 eval_every=1 eval_test_samples=32)
  python -m repro.cli sweep --preset fig7 --store "$CI_TMP/fig7.jsonl" --workers 2 \
      --scale "${fig7_scale[@]}" >/dev/null
  python -m repro.cli regenerate --store "$CI_TMP/fig7.jsonl" --artifact fig7 \
      --output "$CI_TMP/regen" --scale "${fig7_scale[@]}" >/dev/null
  test -s "$CI_TMP/regen/fig7_dynamic_topology.txt"

  # Live status heartbeat: a 2-cell pool sweep must leave an atomically
  # rewritten status.json in a terminal state with every cell done, and
  # `top --once` must render it.
  local status_args=(--workload movielens --scheme jwins full-sharing
                     --nodes 4 --degree 2 --rounds 2)
  python -m repro.cli sweep "${status_args[@]}" --store "$CI_TMP/status-smoke.jsonl" \
      --workers 2 --status "$CI_TMP/status-smoke" >/dev/null
  python - "$CI_TMP/status-smoke/status.json" <<'PY'
import json
import sys

doc = json.load(open(sys.argv[1], encoding="utf-8"))
assert doc["state"] == "done", f"sweep state {doc['state']!r} is not terminal"
cells = doc["cells"]
assert len(cells) == 2, f"expected 2 cells, got {len(cells)}"
bad = {key: cell["state"] for key, cell in cells.items() if cell["state"] != "done"}
assert not bad, f"non-done cells after a completed sweep: {bad}"
PY
  python -m repro.cli top "$CI_TMP/status-smoke" --once | grep -q "state=done"
  echo "status smoke: 2-worker sweep reached terminal status.json with all cells done"
}

# Print a readable summary of how two JSONL stores differ (first differing
# line, its cell, and the first differing top-level result field).
_store_diff_summary() {
  python - "$1" "$2" <<'PY'
import json
import sys

a_path, b_path = sys.argv[1], sys.argv[2]
a = open(a_path, encoding="utf-8").read().splitlines()
b = open(b_path, encoding="utf-8").read().splitlines()
print(f"  line counts: {len(a)} vs {len(b)}")
for number, (line_a, line_b) in enumerate(zip(a, b), start=1):
    if line_a == line_b:
        continue
    print(f"  first differing line: {number}")
    try:
        record_a, record_b = json.loads(line_a), json.loads(line_b)
    except json.JSONDecodeError:
        print("  (line is not valid JSON)")
        break
    spec = record_a.get("spec", {})
    print(f"  cell: workload={spec.get('workload')} scheme={spec.get('scheme')}")
    result_a, result_b = record_a.get("result", {}), record_b.get("result", {})
    for key in sorted(set(result_a) | set(result_b)):
        if result_a.get(key) != result_b.get(key):
            print(f"  first differing result field: {key!r}")
            print(f"    a: {str(result_a.get(key))[:120]}")
            print(f"    b: {str(result_b.get(key))[:120]}")
            break
    break
else:
    if len(a) != len(b):
        print("  one store is a strict prefix of the other")
PY
}

# Forensic root-cause on a byte-compare failure: diff the per-cell traces of
# the two runs and print the first divergent record, its field drift and the
# causal backtrace (repro.observability.forensics via `trace diff`).
_trace_forensics() {
  local dir_a="$1" dir_b="$2" name
  echo "forensic trace diff (first divergent cell):"
  for path in "$dir_a"/*.trace.jsonl; do
    [[ -e "$path" ]] || break
    name="$(basename "$path")"
    [[ -f "$dir_b/$name" ]] || continue
    if ! python -m repro.cli trace diff "$path" "$dir_b/$name"; then
      return 0
    fi
  done
  echo "  (no divergent per-cell traces found; the mismatch is outside the traced events)"
}

_compare_stores() {
  local expected="$1" actual="$2" label="$3"
  local expected_traces="${4:-}" actual_traces="${5:-}"
  if ! cmp -s "$expected" "$actual"; then
    echo "determinism gate FAILED: $label stores are not byte-identical"
    _store_diff_summary "$expected" "$actual"
    if [[ -n "$expected_traces" && -n "$actual_traces" ]]; then
      _trace_forensics "$expected_traces" "$actual_traces"
    fi
    return 1
  fi
  echo "determinism gate: $label stores are byte-identical"
}

# The stripped (wall-free) per-cell traces of two runs must match file for
# file; on a mismatch the forensic diff names the first divergent record.
_compare_traces() {
  local dir_a="$1" dir_b="$2" label="$3"
  if ! python - "$dir_a" "$dir_b" <<'PY'
import sys
from pathlib import Path

from repro.observability.trace import strip_wall

left, right = (sorted(Path(d).glob("*.trace.jsonl")) for d in sys.argv[1:3])
if not left or [p.name for p in left] != [p.name for p in right]:
    sys.exit(f"  trace file sets differ ({len(left)} vs {len(right)} files)")
for a, b in zip(left, right):
    if strip_wall(a) != strip_wall(b):
        sys.exit(f"  {a.name}: stripped traces differ")
print(f"determinism gate: {len(left)} stripped cell traces are identical")
PY
  then
    echo "determinism gate FAILED: $label stripped traces differ"
    _trace_forensics "$dir_a" "$dir_b"
    return 1
  fi
}

stage_determinism() {
  # Rerun across processes: a seeded churn+partition sweep, run twice in
  # separate processes, must store the same bytes and write the same
  # wall-stripped per-cell traces (every record, not just the results).  Only
  # separate processes catch a result that depends on Python's per-process
  # string-hash seed: the fuzzer's oracles run in one process, and its pool
  # workers are forked from it.  Each leg runs the two schemes lock-step, then
  # again under the event loop (a second sweep into the same store).
  local det_args=(--workload movielens --scheme jwins full-sharing
                  --nodes 4 --degree 2 --rounds 3 --scenario churn-partition)
  local leg
  for leg in serial rerun; do
    python -m repro.cli sweep "${det_args[@]}" --store "$CI_TMP/det-$leg.jsonl" \
        --workers 1 --trace "$CI_TMP/det-$leg-traces" >/dev/null
    python -m repro.cli sweep "${det_args[@]}" --scale execution=async --store "$CI_TMP/det-$leg.jsonl" \
        --workers 1 --trace "$CI_TMP/det-$leg-traces" >/dev/null
  done
  _compare_stores "$CI_TMP/det-serial.jsonl" "$CI_TMP/det-rerun.jsonl" "rerun (1 worker vs 1 worker)" \
      "$CI_TMP/det-serial-traces" "$CI_TMP/det-rerun-traces"
  _compare_traces "$CI_TMP/det-serial-traces" "$CI_TMP/det-rerun-traces" "rerun (1 worker vs 1 worker)"

  # Worker count, engines and the larger deployments (24 movielens nodes with
  # and without a budget, 20 cifar10 nodes in two JWINS passes): the pinned
  # fuzz cases, through all five oracles.
  python -m repro.scenarios.fuzz --pinned

  # BLAS-thread invariance: the benchmark harness pins one OpenBLAS thread and
  # the CLI does not, and CNN evaluation reads conv1 columns in sample blocks,
  # which is exact only while a GEMM split by output columns is exact at any
  # thread count.  An 8-node cifar10 cell (CNN training and evaluation every
  # round) must store the same bytes under 1 and 2 threads; numpy fixes the
  # thread count when it loads, so each leg is its own process.
  local blas_args=(--workload cifar10 --scheme jwins --nodes 8 --degree 4 --rounds 2
                   --seeds 1 --scale eval_every=1)
  local threads
  for threads in 1 2; do
    OPENBLAS_NUM_THREADS="$threads" python -m repro.cli sweep "${blas_args[@]}" \
        --store "$CI_TMP/det-blas-$threads.jsonl" --workers 1 >/dev/null
  done
  _compare_stores "$CI_TMP/det-blas-1.jsonl" "$CI_TMP/det-blas-2.jsonl" "OpenBLAS threads (1 vs 2)"
}

stage_checkpoint() {
  # The fourth determinism pillar: interrupt-at-round-k + resume must be
  # byte-identical to never having stopped.  Run a 2-cell sweep to
  # completion, re-run it preemptibly on 2 workers and SIGINT it mid-spec
  # (workers checkpoint their in-flight cells), resume, byte-compare.
  local ck_args=(--workload movielens --scheme jwins full-sharing
                 --nodes 6 --degree 2 --rounds 300 --seeds 1)
  python -m repro.cli sweep "${ck_args[@]}" --store "$CI_TMP/ck-ref.jsonl" --workers 1 --trace "$CI_TMP/ck-ref-traces" >/dev/null

  python -m repro.cli sweep "${ck_args[@]}" --store "$CI_TMP/ck-intr.jsonl" \
      --workers 2 --checkpoint-dir "$CI_TMP/ckpts" --status "$CI_TMP/ck-intr-status" \
      >"$CI_TMP/ck-intr.log" 2>&1 &
  local sweep_pid=$!
  # Interrupt once the first snapshot is on disk, so the cells are mid-spec
  # however fast the host runs them (after a fixed 4 s sleep the sweep often
  # finished first, and the pause path went untested).
  local waited=0
  until compgen -G "$CI_TMP/ckpts/*.ckpt" >/dev/null || ((waited >= 300)) \
      || ! kill -0 "$sweep_pid" 2>/dev/null; do
    sleep 0.1
    waited=$((waited + 1))
  done
  kill -INT "$sweep_pid" 2>/dev/null || true
  local interrupted_rc=0
  wait "$sweep_pid" || interrupted_rc=$?
  # 130 = paused mid-run (the expected path); 0 = a fast machine raced the
  # sweep to completion, which still validates the byte-compare below.
  if [[ "$interrupted_rc" != 130 && "$interrupted_rc" != 0 ]]; then
    echo "checkpoint gate FAILED: interrupted sweep exited with $interrupted_rc"
    cat "$CI_TMP/ck-intr.log"
    return 1
  fi
  if [[ "$interrupted_rc" == 130 ]]; then
    echo "checkpoint gate: sweep paused mid-spec ($(ls "$CI_TMP/ckpts" | grep -c ckpt) snapshot(s))"
  else
    echo "checkpoint gate: sweep finished before the SIGINT landed (still comparing)"
  fi
  # The resume leg traces too: on a byte mismatch the forensic diff names the
  # exact record where the resumed run departs from the uninterrupted one.
  python -m repro.cli sweep "${ck_args[@]}" --store "$CI_TMP/ck-intr.jsonl" \
      --workers 2 --checkpoint-dir "$CI_TMP/ckpts" --trace "$CI_TMP/ck-resume-traces" >/dev/null
  # Sorted copies, in this leg only: the store is append-only, so its row
  # order is completion order, and which of the two cells lands first depends
  # on whether the fast full-sharing cell beat the SIGINT while the jwins cell
  # paused.  Rows are keyed by spec hash, so order carries no meaning here;
  # the determinism stage keeps raw cmp, where order is part of the contract.
  LC_ALL=C sort "$CI_TMP/ck-ref.jsonl"  >"$CI_TMP/ck-ref.sorted.jsonl"
  LC_ALL=C sort "$CI_TMP/ck-intr.jsonl" >"$CI_TMP/ck-intr.sorted.jsonl"
  _compare_stores "$CI_TMP/ck-ref.sorted.jsonl" "$CI_TMP/ck-intr.sorted.jsonl" "interrupt/resume" \
      "$CI_TMP/ck-ref-traces" "$CI_TMP/ck-resume-traces"

  # New-subcommand smokes: the expansion preview leaves no store behind, and
  # compaction collapses a --force re-run to one row per cell.
  python -m repro.cli sweep "${ck_args[@]}" --store "$CI_TMP/ck-dry.jsonl" --dry-run >/dev/null
  test ! -e "$CI_TMP/ck-dry.jsonl"
  python -m repro.cli sweep "${ck_args[@]}" --store "$CI_TMP/ck-ref.jsonl" --workers 1 --force >/dev/null
  python -m repro.cli store compact --store "$CI_TMP/ck-ref.jsonl" \
      | grep -q "4 line(s) -> 2 row(s)"

  # The single-run checkpoint chain: a checkpointing event-loop `run` (with
  # every telemetry sink), a resume from its snapshot, a fork of that snapshot
  # into a churn future, and the trace rollups of the run and of the sweep.
  local run_args=(--workload movielens --scheme jwins --nodes 4 --degree 2 --rounds 3
                  --execution async --checkpoint-dir "$CI_TMP/run-ckpts")
  python -m repro.cli run "${run_args[@]}" --checkpoint-every 1 --metrics \
      --trace "$CI_TMP/run-traces" --status "$CI_TMP/run-status" >"$CI_TMP/run-metrics.txt"
  # The registry folds the engine's hooks: its counts must match the run's
  # own accounting (4 nodes x degree 2 x 3 rounds, no loss).
  local pinned
  for pinned in "engine_messages_delivered{scheme=jwins} 24" "engine_messages_dropped 0" \
      "engine_messages_suppressed 0" "net_bytes_sent{scheme=jwins} 47100"; do
    if ! awk -v key="${pinned% *}" -v value="${pinned##* }" \
        '$1 == key && $2 == value { found = 1 } END { exit !found }' "$CI_TMP/run-metrics.txt"; then
      echo "checkpoint gate FAILED: the --metrics table does not read $pinned:"
      cat "$CI_TMP/run-metrics.txt"
      return 1
    fi
  done
  local snapshot
  snapshot="$(ls "$CI_TMP"/run-ckpts/*.ckpt)"
  python -m repro.cli run "${run_args[@]}" --resume-from "$snapshot" >/dev/null
  python -m repro.cli fork --snapshot "$snapshot" --scenario churn --rounds 5 \
      --store "$CI_TMP/fork.jsonl" >"$CI_TMP/fork.log"
  grep -q "stored forked result" "$CI_TMP/fork.log"
  local run_trace
  run_trace="$(ls "$CI_TMP"/run-traces/*.trace.jsonl)"  # the one cell's file
  python -m repro.cli trace summarize "$run_trace" >"$CI_TMP/summary.txt"
  grep -q "rounds_completed=3" "$CI_TMP/summary.txt"
  python -m repro.cli trace summarize "$CI_TMP/ck-ref-traces" >/dev/null

  # A torn snapshot (a write cut short): `fork` must refuse it by its length
  # with a clean message, never a traceback.
  cp "$snapshot" "$CI_TMP/torn.ckpt"
  truncate -s "$(( $(stat -c %s "$snapshot") / 2 ))" "$CI_TMP/torn.ckpt"
  local torn_rc=0
  python -m repro.cli fork --snapshot "$CI_TMP/torn.ckpt" --rounds 5 \
      --store "$CI_TMP/torn.jsonl" >"$CI_TMP/torn.log" 2>&1 || torn_rc=$?
  if [[ "$torn_rc" == 0 ]] || grep -q "Traceback" "$CI_TMP/torn.log" \
      || ! grep -q "is torn" "$CI_TMP/torn.log"; then
    echo "checkpoint gate FAILED: a truncated snapshot was not refused cleanly (exit $torn_rc):"
    cat "$CI_TMP/torn.log"
    return 1
  fi
  echo "checkpoint gate: a truncated snapshot was refused: $(tail -n 1 "$CI_TMP/torn.log")"

  # A JSON-era snapshot (versions 1-4 were one JSON document) is refused by
  # its version number.
  printf '{"format": "jwins-repro-checkpoint", "snapshot": {}, "version": 4}\n' >"$CI_TMP/v4.ckpt.json"
  if python -m repro.cli fork --snapshot "$CI_TMP/v4.ckpt.json" >"$CI_TMP/v4.log" 2>&1 \
      || ! grep -q "schema version 4; this build reads version 5" "$CI_TMP/v4.log"; then
    echo "checkpoint gate FAILED: a version-4 snapshot was not refused by its number:"
    cat "$CI_TMP/v4.log"
    return 1
  fi
}

stage_fuzz() {
  # Property-test the determinism contract over random hostile schedules
  # (overlapping outages, partitions, byzantine windows, rewiring).  The
  # fixed seed keeps the smoke reproducible; a failure prints the minimal
  # failing schedule as JSON replayable with `--replay`, with the trace diff
  # of the oracle's own failing runs.
  python -m repro.scenarios.fuzz --cases 10 --seed 0
  # A stateful baseline takes the per-row default hooks: its error-feedback
  # state crosses the one-node stage calls under churn, partitions, byzantine
  # windows and mid-flight resumes.
  python -m repro.scenarios.fuzz --cases 4 --seed 1 --scheme choco
  # The alarm itself must ring, and the forensics must root-cause it: inject
  # nondeterminism into the byzantine send path, require a caught, shrunken
  # failure AND a forensic trace diff naming the divergent round and field.
  local selftest_out
  selftest_out="$(python -m repro.scenarios.fuzz --self-test --cases 1 --seed 0)"
  grep -q "forensics localized the divergence to round" <<<"$selftest_out"
  grep -q "first divergent record" <<<"$selftest_out"
  echo "fuzz gate: 10 jwins + 4 choco hostile schedules passed all 5 oracles; self-test caught and root-caused the injected bug"
}

stage_reach() {
  python scripts/reach.py
}

ALL_STAGES=(lint analysis docs test gradcheck bench smoke determinism checkpoint fuzz reach)

run_stage() {
  local name="$1"
  echo "== stage: $name =="
  local started=$SECONDS
  "stage_$name"
  echo "-- stage $name OK in $((SECONDS - started))s"
}

main() {
  local stages=("$@")
  if [[ ${#stages[@]} -eq 0 || "${stages[0]}" == "all" ]]; then
    stages=("${ALL_STAGES[@]}")
  fi
  for name in "${stages[@]}"; do
    if ! declare -F "stage_$name" >/dev/null; then
      echo "unknown CI stage '$name'; available: ${ALL_STAGES[*]}" >&2
      exit 2
    fi
  done
  local total_started=$SECONDS
  for name in "${stages[@]}"; do
    run_stage "$name"
  done
  echo "CI OK in $((SECONDS - total_started))s (${stages[*]})"
}

main "$@"
