"""Pins that keep the CLI refactorable: parser surface, spec identity, one declaration per flag.

Every literal here was captured at the commit before the flag groups were
shared (PR 16), so a change to what a flag parses to, or to the spec a flag
combination builds, fails here in well under a second instead of silently
moving content hashes (and orphaning every stored result).
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path

import pytest

import repro.cli as cli
from repro.cli import build_cli_parser, main
from repro.orchestration import SweepOutcome

_SCHEMES = ("jwins", "jwins-adaptive", "full-sharing", "random-sampling", "topk", "choco", "quantized")
_ARTIFACTS = ("table1", "fig6", "fig7")
_SUPPRESS = argparse.SUPPRESS

#: Per subcommand, one row per argparse action:
#: (option_strings, dest, nargs, const, default, type name, choices, required).
#: Help and metavar are free to change.
_SURFACE = {
    "run": [
        (("--bits",), "bits", None, None, 4, "int", None, False),
        (("--budget",), "budget", None, None, None, "float", None, False),
        (("--checkpoint-dir",), "checkpoint_dir", None, None, None, None, None, False),
        (("--checkpoint-every",), "checkpoint_every", None, None, 0, "int", None, False),
        (("--degree",), "degree", None, None, None, "int", None, False),
        (("--drop-probability",), "drop_probability", None, None, 0.0, "float", None, False),
        (("--dynamic-topology",), "dynamic_topology", 0, True, False, None, None, False),
        (("--engine",), "engine", None, None, "pernode", None, ("pernode", "arena"), False),
        (("--execution",), "execution", None, None, "sync", None, ("sync", "async"), False),
        (("--fraction",), "fraction", None, None, 0.37, "float", None, False),
        (("--gamma",), "gamma", None, None, 0.6, "float", None, False),
        (("--list-scenarios",), "list_scenarios", 0, True, False, None, None, False),
        (("--list-schemes",), "list_schemes", 0, True, False, None, None, False),
        (("--list-workloads",), "list_workloads", 0, True, False, None, None, False),
        (("--metrics",), "metrics", 0, True, False, None, None, False),
        (("--nodes",), "nodes", None, None, None, "int", None, False),
        (("--resume-from",), "resume_from", None, None, None, None, None, False),
        (("--rounds",), "rounds", None, None, None, "int", None, False),
        (("--scenario",), "scenario", None, None, None, None, None, False),
        (("--scheme",), "scheme", "+", None, ("jwins", "full-sharing"), None, _SCHEMES, False),
        (("--seed",), "seed", None, None, 1, "int", None, False),
        (("--slowdown",), "slowdown", None, None, 1.0, "float", None, False),
        (("--status",), "status", None, None, None, None, None, False),
        (("--trace",), "trace", None, None, None, None, None, False),
        (("--version",), "version", 0, None, _SUPPRESS, None, None, False),
        (("--workload",), "workload", None, None, "cifar10", None, None, False),
    ],
    "sweep": [
        (("--bits",), "bits", None, None, 4, "int", None, False),
        (("--budget",), "budget", None, None, None, "float", None, False),
        (("--checkpoint-dir",), "checkpoint_dir", None, None, None, None, None, False),
        (("--checkpoint-every",), "checkpoint_every", None, None, 1, "int", None, False),
        (("--degree",), "degree", None, None, None, "int", None, False),
        (("--dry-run",), "dry_run", 0, True, False, None, None, False),
        (("--force",), "force", 0, True, False, None, None, False),
        (("--fraction",), "fraction", None, None, 0.37, "float", None, False),
        (("--gamma",), "gamma", None, None, 0.6, "float", None, False),
        (("--metrics",), "metrics", 0, True, False, None, None, False),
        (("--nodes",), "nodes", None, None, None, "int", None, False),
        (("--preset",), "preset", None, None, None, None, _ARTIFACTS, False),
        (("--rounds",), "rounds", None, None, None, "int", None, False),
        (("--scale",), "scale", "+", None, None, None, None, False),
        (("--scenario",), "scenario", "+", None, None, None, None, False),
        (("--scheme",), "scheme", "+", None, ("jwins", "full-sharing"), None, _SCHEMES, False),
        (("--seeds",), "seeds", "+", None, None, "int", None, False),
        (("--status",), "status", None, None, None, None, None, False),
        (("--store",), "store", None, None, "sweep-results.jsonl", None, None, False),
        (("--trace",), "trace", None, None, None, None, None, False),
        (("--workers",), "workers", None, None, 1, "int", None, False),
        (("--workload",), "workload", "+", None, ("cifar10",), None, None, False),
    ],
    "fork": [
        (("--checkpoint-dir",), "checkpoint_dir", None, None, None, None, None, False),
        (("--checkpoint-every",), "checkpoint_every", None, None, 0, "int", None, False),
        (("--metrics",), "metrics", 0, True, False, None, None, False),
        (("--rounds",), "rounds", None, None, None, "int", None, False),
        (("--scenario",), "scenario", None, None, None, None, None, False),
        (("--set",), "set", "+", None, None, None, None, False),
        (("--snapshot",), "snapshot", None, None, None, None, None, True),
        (("--status",), "status", None, None, None, None, None, False),
        (("--store",), "store", None, None, None, None, None, False),
        (("--trace",), "trace", None, None, None, None, None, False),
    ],
    "trace": [
        ((), "action", None, None, None, None, ("summarize", "diff"), True),
        ((), "path", None, None, None, None, None, True),
        ((), "path_b", "?", None, None, None, None, False),
        (("--json",), "json", 0, True, False, None, None, False),
    ],
    "top": [
        ((), "dir", None, None, None, None, None, True),
        (("--interval",), "interval", None, None, 2.0, "float", None, False),
        (("--once",), "once", 0, True, False, None, None, False),
    ],
    "store": [
        ((), "action", None, None, None, None, ("compact",), True),
        (("--store",), "store", None, None, None, None, None, True),
    ],
    "regenerate": [
        (("--artifact",), "artifact", "+", None, None, None, _ARTIFACTS, False),
        (("--output",), "output", None, None, "benchmarks/output", None, None, False),
        (("--scale",), "scale", "+", None, None, None, None, False),
        (("--store",), "store", None, None, None, None, None, True),
    ],
}


def _surface(parser: argparse.ArgumentParser) -> list[tuple]:
    rows = []
    for action in parser._actions:
        if isinstance(action, (argparse._HelpAction, argparse._SubParsersAction)):
            continue
        default = tuple(action.default) if isinstance(action.default, list) else action.default
        rows.append(
            (
                tuple(action.option_strings),
                action.dest,
                action.nargs,
                action.const,
                default,
                None if action.type is None else action.type.__name__,
                None if action.choices is None else tuple(action.choices),
                action.required,
            )
        )
    return sorted(rows, key=lambda row: (row[0], row[1]))


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    [subparsers] = [
        action
        for action in build_cli_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return dict(subparsers.choices)


def test_the_pinned_subcommands_are_all_the_subcommands():
    assert set(_subparsers()) == set(_SURFACE) == set(cli.SUBCOMMANDS)


@pytest.mark.parametrize("command", sorted(_SURFACE))
def test_parser_surface_is_pinned(command):
    assert _surface(_subparsers()[command]) == _SURFACE[command]


@pytest.mark.parametrize("argv", [[], ["--workload", "movielens", "--nodes", "4", "--seed", "3"]])
def test_a_flat_invocation_parses_as_run(monkeypatch, argv):
    parsed = []
    monkeypatch.setattr(cli, "_run_command", lambda args: parsed.append(vars(args)) or 0)
    assert main(argv) == 0
    assert main(["run", *argv]) == 0
    assert parsed[0] == parsed[1]


@pytest.mark.parametrize("command", ["run", "sweep", "fork"])
def test_the_removed_profile_flag_is_refused(command, capsys):
    required = ["--snapshot", "run.ckpt"] if command == "fork" else []
    with pytest.raises(SystemExit):
        build_cli_parser().parse_args([command, *required, "--profile"])
    assert "unrecognized arguments: --profile" in capsys.readouterr().err


# -- spec identity ----------------------------------------------------------------------
#: `run` argv -> [(spec label, content hash)], one per --scheme, in order.
_RUN_SPEC_HASHES = {
    "": [
        ("cifar10/jwins", "4afc66b74cc68ec3d7adad08ee651ae9a2b92a72a60063eb37b0492be77961d8"),
        ("cifar10/full-sharing", "b4154f8c80ce44c3a87c97501580a5d2bf072c81c6072fc39aae48b4167970bd"),
    ],
    "--execution async --slowdown 3 --drop-probability 0.1": [
        ("cifar10/jwins", "6c217fc3a248d56859beea10e1d7c2fa0fd139f874c200c648b2e62013a6c37a"),
        ("cifar10/full-sharing", "964842991855213f39a0ceb6f30883f82418ab8d9ca77787d2eacedcf44a3671"),
    ],
    "--engine arena": [
        ("cifar10/jwins", "84d310b2556806c918842ed40f3e92483fa7a4dc2a0e6f915e8f0ae514903c08"),
        ("cifar10/full-sharing", "51fb9f60bec234233cbf086205a07245f941ca0ab6e4115d36294cab69eae41a"),
    ],
    "--scenario churn --nodes 8 --rounds 6": [
        ("cifar10/jwins", "187f4f64d679685bbd8e0970274fc8195b5b0749c83b92e23043fa418bbad107"),
        ("cifar10/full-sharing", "a0eac3631f9a9f5a24c5b286087056270ecd62eba8abe6951e1e1ec8c803d9b9"),
    ],
    "--budget 0.2 --scheme jwins choco": [
        ("cifar10/jwins", "e34edf7688c5bd388a311d96c7ac72f03f92a1481481fc5b16940302406a7e3a"),
        ("cifar10/choco", "71e4255886564211187ef7813a1cbf5b399b5ac4d932259e7f824aeab7810017"),
    ],
}


@pytest.mark.parametrize("flags", sorted(_RUN_SPEC_HASHES))
def test_run_spec_identity_is_pinned(flags, monkeypatch, capsys):
    built = []

    def capture_instead_of_running(sweep, **options):
        specs = sweep.expand()
        built.extend((spec.label, spec.content_hash(), spec.resolved_seed()) for spec in specs)
        # "Interrupted": the handler exits without a summary.
        return SweepOutcome(name=sweep.name, specs=specs, interrupted=True)

    monkeypatch.setattr(cli, "run_sweep", capture_instead_of_running)
    assert main(["run", *flags.split()]) == cli.PAUSED_EXIT_CODE
    assert [(label, key) for label, key, _ in built] == _RUN_SPEC_HASHES[flags]
    assert {seed for _, _, seed in built} == {1}  # the spec pins the --seed default


#: Also what `scripts/ci.sh smoke` runs first (through this test), so a drifted
#: flag -> spec mapping fails before any cell executes.
_SWEEP_DRY_RUN_ARGV = (
    "sweep --workload movielens celeba --scheme jwins choco topk --seeds 1 2 --nodes 4 "
    "--degree 2 --rounds 4 --budget 0.2 --scenario churn --scale eval_every=1 --dry-run"
)
_SWEEP_DRY_RUN_STDOUT = """\
23169595db9c09230f289801acbe4f6df1667ce753218c4f7c91b5069f909ab2  seed=1          movielens/jwins/seed=1/scenario=churn
c98051a579b74c50c68a1dc6d69e20b95f0289d7988e79160d5e34948268c5e8  seed=1          movielens/choco/seed=1/scenario=churn
c623c506723eba948cc63994eca39cfd9371642ab3e390e1354f13ae6561a415  seed=1          movielens/topk/seed=1/scenario=churn
7724b11bbfe7c744633e56b6d1cbf281dbb04992703415c91ad5774e2dfa6955  seed=1          celeba/jwins/seed=1/scenario=churn
4e5e38fa0727c9c3285be5d2ce6ac9c52472f797305ff2358ba770667f30dfda  seed=1          celeba/choco/seed=1/scenario=churn
f06a657ec299be8e8220cc10ed3f95dad75bbe2de57f21d7ec109517391288e2  seed=1          celeba/topk/seed=1/scenario=churn
9a09b14642693cae7441a9a7bbc783c01e6b5a59b567f69f8b7c39984f473731  seed=2          movielens/jwins/seed=2/scenario=churn
7f9790779083d2bc1daf36d57f78c8033ff62fd7bab2b7242a17ef4ca64e3fef  seed=2          movielens/choco/seed=2/scenario=churn
359041ea311ffbbcaa7c18bbd1c76671cfeb0977fb6d1a6b1b985a6aa333584b  seed=2          movielens/topk/seed=2/scenario=churn
5ebe32a9552545804fcbfe7e7ac29e5abd366c73c36a332920431a5ea69d8020  seed=2          celeba/jwins/seed=2/scenario=churn
24f3c59dabad744dff39d48cbfea80b0fd1772f85da095de30a90e16a298423d  seed=2          celeba/choco/seed=2/scenario=churn
75b3725b816b25b4602da2fef9880c54ac973f735ca9c03e32ffeef7c30a33d6  seed=2          celeba/topk/seed=2/scenario=churn

sweep=adhoc: 12 cell(s), 12 unique
"""


def test_sweep_dry_run_stdout_is_pinned(capsys):
    assert main(_SWEEP_DRY_RUN_ARGV.split()) == 0
    assert capsys.readouterr().out == _SWEEP_DRY_RUN_STDOUT


# -- declared once ----------------------------------------------------------------------
_SHARED_FLAGS = (
    "--scheme --nodes --degree --budget --fraction --gamma --bits "
    "--checkpoint-dir --checkpoint-every --metrics --trace --status"
).split()


def test_each_shared_flag_is_declared_exactly_once():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    declared = [
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_argument"
        and node.args
        and isinstance(node.args[0], ast.Constant)
    ]
    assert {flag: declared.count(flag) for flag in _SHARED_FLAGS} == dict.fromkeys(_SHARED_FLAGS, 1)
    # The deployment group's round count, and `fork`'s own round budget.
    assert declared.count("--rounds") == 2


# -- the drifted copy: sweep validates --budget like run --------------------------------
@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("budget", ["0", "1.5", "-0.5"])
def test_out_of_range_budget_is_rejected_by_run_and_sweep(command, budget):
    argv = [command, "--workload", "movielens", "--scheme", "choco", "--budget", budget]
    if command == "sweep":
        argv.append("--dry-run")  # a budget that slipped through would only print a cell
    with pytest.raises(SystemExit, match=r"--budget must be in \(0, 1\]"):
        main(argv)
