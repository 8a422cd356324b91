"""Property tests for the scenario fuzzer (repro.scenarios.fuzz).

Three layers:

* the *generator* — every produced case is well-formed, serializable and
  deterministic in (seed, index), and the distribution actually covers the
  event space (all window kinds, both execution modes, every Byzantine mode);
* the *shrinker* — greedy delta-debugging reaches a minimal case under a
  known predicate;
* the *oracles* — a sampled case passes them, the injected-chaos self-test
  path catches deliberately broken determinism and shrinks it while keeping
  the Byzantine window the bug lives in, and a failing verdict carries the
  trace diff of the very runs that failed.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np

from repro.scenarios import fuzz
from repro.scenarios.fuzz import (
    ORACLES,
    PINNED_CASES,
    FuzzCase,
    _oracle_engines,
    _oracle_rerun,
    _oracle_resume,
    _oracle_workers,
    generate_case,
    install_chaos,
    main,
    run_case,
    shrink_case,
)
from repro.scenarios.schedule import (
    BYZANTINE_MODES,
    ByzantineWindow,
    NodeOutage,
    PartitionWindow,
    ScenarioSchedule,
    StragglerWindow,
)
from repro.checkpoint import SimulationSnapshot
from repro.observability.trace import TraceEmitter
from repro.simulation.arena import NodeArenas
from repro.simulation.engine import Simulator
from repro.topology.policy import GeneratorPolicy


# -- generation --------------------------------------------------------------------
def test_generated_cases_are_well_formed_and_round_trip():
    for index in range(40):
        case = generate_case(0, index)
        assert 4 <= case.num_nodes <= 6
        assert 3 <= case.rounds <= 6
        assert case.execution in ("sync", "async")
        # Every window fits the deployment and can actually open.
        case.schedule.validate_for(case.num_nodes, rounds=case.rounds)
        # No combination of outages empties a round (node 0 is the anchor).
        for round_index in range(case.rounds):
            assert case.schedule.state_at(round_index, case.num_nodes).active
        # The case survives its own JSON round trip exactly (what --replay needs).
        rebuilt = FuzzCase.from_dict(json.loads(json.dumps(case.to_dict())))
        assert rebuilt == case
        assert rebuilt.to_dict() == case.to_dict()


def test_generation_is_a_pure_function_of_seed_and_index():
    for index in range(10):
        assert generate_case(3, index) == generate_case(3, index)
    assert generate_case(3, 0) != generate_case(4, 0)


def test_generation_covers_the_event_space():
    cases = [generate_case(1, index) for index in range(60)]
    assert {case.execution for case in cases} == {"sync", "async"}
    assert any(case.schedule.outages for case in cases)
    assert any(case.schedule.partitions for case in cases)
    assert any(case.schedule.stragglers for case in cases)
    assert any(case.schedule.byzantine for case in cases)
    assert any(case.schedule.topology.rewire_every > 0 for case in cases)
    assert any(case.drop_probability > 0 for case in cases)
    # Permanent departures (end_round=None) are part of the distribution.
    assert any(
        outage.end_round is None for case in cases for outage in case.schedule.outages
    )
    modes = {window.mode for case in cases for window in case.schedule.byzantine}
    assert modes == set(BYZANTINE_MODES)


def test_ensure_byzantine_guarantees_an_attack_window():
    for index in range(20):
        case = generate_case(0, index, ensure_byzantine=True)
        assert case.schedule.byzantine


def test_case_spec_embeds_the_schedule_and_offsets_seeds():
    case = generate_case(0, 0)
    spec = case.spec()
    assert spec.overrides["scenario"] == case.schedule.to_dict()
    assert spec.overrides["rounds"] == case.rounds
    companion = case.spec(seed_offset=1)
    assert companion.overrides["seed"] == spec.overrides["seed"] + 1
    assert companion.content_hash() != spec.content_hash()


# -- pinned cases ------------------------------------------------------------------
#: Each pinned case as the determinism-stage cell it stands for:
#: (workload, nodes, degree, rounds, scheme, budget, execution).
PINNED_ROWS = {
    "movielens-4-sync-jwins": ("movielens", 4, 2, 3, "jwins", None, "sync"),
    "movielens-4-sync-full-sharing": ("movielens", 4, 2, 3, "full-sharing", None, "sync"),
    "movielens-4-async-jwins": ("movielens", 4, 2, 3, "jwins", None, "async"),
    "movielens-4-async-full-sharing": ("movielens", 4, 2, 3, "full-sharing", None, "async"),
    "movielens-24-jwins": ("movielens", 24, 4, 3, "jwins", None, "sync"),
    "movielens-24-full-sharing": ("movielens", 24, 4, 3, "full-sharing", None, "sync"),
    "movielens-24-jwins-budget-0.2": ("movielens", 24, 4, 3, "jwins", 0.2, "sync"),
    "cifar10-20-jwins": ("cifar10", 20, 4, 3, "jwins", None, "sync"),
    "cifar10-20-full-sharing": ("cifar10", 20, 4, 3, "full-sharing", None, "sync"),
}


def test_pinned_cases_round_trip_build_and_match_their_rows():
    assert list(PINNED_CASES) == list(PINNED_ROWS)
    for name, case in PINNED_CASES.items():
        # --replay reads a case back from its report.
        assert FuzzCase.from_dict(json.loads(json.dumps(case.to_dict()))) == case
        case.spec().build()
        assert (
            case.workload,
            case.num_nodes,
            case.degree,
            case.rounds,
            case.scheme,
            case.budget,
            case.execution,
        ) == PINNED_ROWS[name], name


# -- shrinking ---------------------------------------------------------------------
def test_shrinker_reaches_a_minimal_case():
    case = FuzzCase(
        index=0,
        num_nodes=4,
        rounds=6,
        execution="sync",
        drop_probability=0.15,
        run_seed=9,
        schedule=ScenarioSchedule(
            name="shrink-me",
            topology=GeneratorPolicy(
                generator="small-world", rewire_every=2, params=(("beta", 0.2),)
            ),
            outages=(NodeOutage(node=1, start_round=1, end_round=3),),
            partitions=(
                PartitionWindow(start_round=0, end_round=4, groups=((0, 1), (2, 3))),
            ),
            stragglers=(
                StragglerWindow(start_round=2, end_round=5, nodes=(2,), slowdown=2.0),
            ),
            byzantine=(
                ByzantineWindow(start_round=0, end_round=6, nodes=(3,), mode="sign-flip"),
                ByzantineWindow(
                    start_round=1, end_round=4, nodes=(2,), mode="stale-replay"
                ),
            ),
        ),
    )

    # A pure stand-in for "the bug": any schedule with a byzantine window fails.
    shrunk = shrink_case(case, lambda candidate: bool(candidate.schedule.byzantine))

    assert len(shrunk.schedule.byzantine) == 1
    (window,) = shrunk.schedule.byzantine
    assert window.end_round == window.start_round + 1  # truncated to one round
    assert shrunk.schedule.outages == ()
    assert shrunk.schedule.partitions == ()
    assert shrunk.schedule.stragglers == ()
    assert shrunk.schedule.topology == GeneratorPolicy()
    assert shrunk.drop_probability == 0.0
    assert shrunk.rounds == 2  # the floor of the rounds reduction
    # The minimum is still a valid, runnable case.
    shrunk.schedule.validate_for(shrunk.num_nodes, rounds=shrunk.rounds)


def test_shrinker_returns_the_case_unchanged_at_a_fixpoint():
    case = FuzzCase(
        index=0,
        num_nodes=4,
        rounds=2,
        execution="sync",
        drop_probability=0.0,
        run_seed=1,
        schedule=ScenarioSchedule(name="already-minimal"),
    )
    assert shrink_case(case, lambda candidate: True) == case


# -- oracles -----------------------------------------------------------------------
def test_a_sampled_case_passes_every_oracle():
    assert run_case(generate_case(0, 0)) is None


def test_injected_chaos_is_caught_and_shrunk_in_process():
    case = generate_case(0, 0, ensure_byzantine=True)
    uninstall = install_chaos()
    try:
        assert _oracle_rerun(case) is not None  # it must ring

        def still_fails(candidate: FuzzCase) -> bool:
            return _oracle_rerun(candidate) is not None

        shrunk = shrink_case(case, still_fails)
        # The bug lives in the byzantine send path: shrinking must keep it.
        assert shrunk.schedule.byzantine
        assert len(shrunk.to_dict()["schedule"]["byzantine"]) <= len(
            case.to_dict()["schedule"]["byzantine"]
        )
    finally:
        uninstall()
    # With the chaos uninstalled the same case is deterministic again.
    assert _oracle_rerun(case) is None


def test_rerun_failure_carries_a_diff_localized_to_a_round():
    """The root-cause pipeline: chaos -> the failing runs' traces -> divergent record."""

    case = generate_case(0, 0, ensure_byzantine=True)
    uninstall = install_chaos()
    try:
        detail, diff = _oracle_rerun(case)
    finally:
        uninstall()
    assert "different result" in detail
    assert diff is not None and not diff.identical
    assert (diff.a_label, diff.b_label) == ("run-1", "run-2")
    assert isinstance(diff.round, int)  # the divergent round is named
    assert diff.seq is not None and diff.kind is not None
    assert diff.drifts, "the divergent record must name at least one field"
    rendered = diff.render()
    assert "first divergent record" in rendered
    assert "origin:" in rendered


def test_rerun_diff_explains_a_failure_that_does_not_reproduce(monkeypatch):
    """Perturb only the first execution: a re-run could not show the divergence."""

    case = generate_case(0, 0, ensure_byzantine=True)
    apply_byzantine = Simulator.apply_byzantine
    first_run: list[Simulator] = []

    def perturb_first_run(self, node_id, round_index, state, params_start, params_trained):
        corrupted = apply_byzantine(
            self, node_id, round_index, state, params_start, params_trained
        )
        if not first_run:
            first_run.append(self)
        if self is first_run[0] and state.byzantine_mode(node_id) is not None:
            corrupted = corrupted + 1e-3
        return corrupted

    monkeypatch.setattr(Simulator, "apply_byzantine", perturb_first_run)
    detail, diff = _oracle_rerun(case)
    assert "different result" in detail
    assert diff is not None and isinstance(diff.round, int)
    # Every later execution is clean: the failure does not reproduce.
    assert _oracle_rerun(case) is None


def test_workers_failure_diffs_the_first_divergent_cell():
    # A process-global counter advances differently in a forked worker.
    case = generate_case(0, 0, ensure_byzantine=True)
    uninstall = install_chaos()
    try:
        detail, diff = _oracle_workers(case)
    finally:
        uninstall()
    assert "not byte-identical" in detail
    cell = case.spec().content_hash()[:12]
    assert diff is not None and isinstance(diff.round, int)
    assert (diff.a_label, diff.b_label) == (f"serial:{cell}", f"pool:{cell}")


def test_workers_oracle_compares_traces_when_the_stores_agree(monkeypatch):
    """A trace field that differs only in a forked pool worker fails ``workers``."""

    case = generate_case(0, 0)
    parent = os.getpid()
    emit = TraceEmitter.emit

    def emit_marking_workers(self, kind, fields=None, wall=None):
        if os.getpid() != parent:
            fields = {**(fields or {}), "pooled": True}
        emit(self, kind, fields, wall)

    monkeypatch.setattr(TraceEmitter, "emit", emit_marking_workers)
    detail, diff = _oracle_workers(case)
    assert "wall-stripped traces differ" in detail
    cell = case.spec().content_hash()[:12]
    assert diff is not None and not diff.identical
    assert (diff.a_label, diff.b_label) == (f"serial:{cell}", f"pool:{cell}")


def test_engines_oracle_rings_when_a_batched_kernel_drifts(monkeypatch):
    """Break only the arena's batched SGD update: the per-node run is the reference."""

    case = generate_case(0, 9)  # sync, with outages, partitions and attackers
    assert case.execution == "sync"
    assert _oracle_engines(case) is None
    step_rows = NodeArenas.step_rows
    monkeypatch.setattr(
        NodeArenas,
        "step_rows",
        lambda self, rows, lr: step_rows(self, rows, lr * 1.001),
    )
    detail, diff = _oracle_engines(case)
    assert "arena" in detail
    assert diff is not None and diff.kind != "manifest"
    assert (diff.a_label, diff.b_label) == ("pernode", "arena")


def test_resume_oracle_resumes_from_the_snapshot_file(monkeypatch):
    """Corrupt what a load returns: only an oracle that reads the file rings."""

    case = generate_case(0, 0)
    assert _oracle_resume(case) is None
    load = SimulationSnapshot.load.__func__
    loads = []

    def load_reversed(cls, path):
        snapshot = load(cls, path)
        loads.append(path)
        params = np.ascontiguousarray(snapshot.nodes[0]["params"][::-1])
        first = {**snapshot.nodes[0], "params": params}
        return dataclasses.replace(snapshot, nodes=[first, *snapshot.nodes[1:]])

    monkeypatch.setattr(SimulationSnapshot, "load", classmethod(load_reversed))
    detail, diff = _oracle_resume(case)
    assert len(loads) == 1
    assert "differs from the uninterrupted run" in detail and diff is None


# -- the CLI entry point -----------------------------------------------------------
def test_main_smoke_run_passes():
    assert main(["--cases", "1", "--seed", "0"]) == 0


def test_main_runs_the_pinned_cases(monkeypatch, capsys):
    monkeypatch.setattr(
        fuzz, "PINNED_CASES", {"movielens-4-sync-jwins": PINNED_CASES["movielens-4-sync-jwins"]}
    )
    assert main(["--pinned", "--oracles", "rerun"]) == 0
    output = capsys.readouterr().out
    assert "case movielens-4-sync-jwins: ok" in output
    assert "fuzz: 1 case(s) passed 1 oracle(s) (pinned)" in output


def test_main_refuses_a_negative_case_count(capsys):
    assert main(["--cases", "-2"]) == 2
    assert "--cases must be non-negative, got -2" in capsys.readouterr().out


def test_main_replay_of_a_missing_file_exits_two(tmp_path, capsys):
    assert main(["--replay", str(tmp_path / "absent.json")]) == 2
    assert "cannot replay" in capsys.readouterr().out


def test_main_rejects_unknown_oracles(capsys):
    assert main(["--cases", "1", "--seed", "0", "--oracles", "bogus"]) == 2
    # The trace comparison is part of `rerun` now; its old name is refused.
    assert main(["--cases", "1", "--seed", "0", "--oracles", "rerun,trace"]) == 2
    assert "unknown oracle(s): trace; available: rerun, coefficients" in capsys.readouterr().out


def test_main_reports_the_shrunk_case_with_the_diff_of_its_failing_runs(tmp_path, capsys):
    report_path = tmp_path / "failing.json"
    uninstall = install_chaos()
    try:
        argv = ["--cases", "1", "--seed", "0", "--oracles", "workers"]
        assert main(argv + ["--report", str(report_path)]) == 1
    finally:
        uninstall()
    assert "forensic trace diff (first divergence, shrunk case):" in capsys.readouterr().out
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["oracle"] == "workers"
    # The diff names a cell of the shrunk case, not of the generated one.
    shrunk = FuzzCase.from_dict(report["case"])
    assert shrunk != generate_case(0, 0)
    cell = shrunk.spec().content_hash()[:12]
    assert report["forensics"]["a"] == f"serial:{cell}"


def test_main_replay_of_a_passing_case(tmp_path, capsys):
    report = {"case": generate_case(0, 0).to_dict()}
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report), encoding="utf-8")
    assert main(["--replay", str(path)]) == 0
    assert "did not reproduce" in capsys.readouterr().out


def test_main_replay_reads_the_top_level_workload_and_scheme_of_an_older_report(
    tmp_path, capsys
):
    case = generate_case(1, 0)
    old_case = {
        key: value
        for key, value in case.to_dict().items()
        if key not in ("workload", "scheme", "degree", "budget")
    }
    path = tmp_path / "report.json"
    path.write_text(
        json.dumps({"workload": "movielens", "scheme": "choco", "case": old_case}),
        encoding="utf-8",
    )
    assert main(["--replay", str(path)]) == 0
    assert "replaying case: movielens/choco " in capsys.readouterr().out


def test_main_replay_of_a_report_without_a_case_exits_two(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"oracle": "rerun"}), encoding="utf-8")
    assert main(["--replay", str(path)]) == 2
    assert "no 'case' mapping" in capsys.readouterr().out


def test_module_self_test_catches_injected_nondeterminism():
    """End to end, as CI runs it: `python -m repro.scenarios.fuzz --self-test`."""

    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-m", "repro.scenarios.fuzz", "--self-test", "--cases", "1", "--seed", "0"],
        capture_output=True,
        text=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert "caught" in completed.stdout


def test_oracle_names_are_stable():
    # scripts/ci.sh and the README document these names; renaming is a breaking
    # change to saved failure reports.
    assert ORACLES == ("rerun", "coefficients", "workers", "resume", "engines")
