"""Command-line interface for running decentralized-learning experiments.

Installed as the ``jwins-repro`` console script; also runnable as
``python -m repro.cli``.  The three main subcommands::

    jwins-repro run --workload cifar10 --scheme jwins full-sharing --nodes 8
    jwins-repro sweep --preset table1 --store results/table1.jsonl --workers 4
    jwins-repro regenerate --store results/table1.jsonl --artifact table1

``run`` executes one flat comparison (the historical behaviour — invoking the
CLI without a subcommand still defaults to it, so ``jwins-repro --workload
cifar10`` keeps working): a one-workload :class:`~repro.orchestration.Sweep`
with one cell per ``--scheme`` and no store.  ``sweep`` expands a declarative
grid — a preset from :mod:`repro.orchestration.artifacts` or an ad-hoc
workload x scheme x seed product — and executes it on a worker pool against a
resumable JSONL store.  ``fork`` runs the one cell a snapshot forks into.
Each of the three is one :func:`~repro.orchestration.run_sweep` call, the one
cell lifecycle (status board, per-cell heartbeat and trace, pause/finish
verdicts), and takes its common flags from four argparse parent groups
(:func:`_flag_groups`).
``regenerate`` re-emits the paper artifacts from such a store without
recomputing anything.

Environment scenarios (churn, partitions, stragglers, time-varying
topologies) attach to ``run`` and ``sweep`` via ``--scenario`` — a preset
name (see ``--list-scenarios``) or a path to a
:meth:`~repro.scenarios.ScenarioSchedule.to_dict` JSON file.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.checkpoint import CheckpointManager, SimulationSnapshot
from repro.evaluation import WORKLOADS, get_workload, summarize_results
from repro.exceptions import CheckpointError, ConfigurationError, ReproError
from repro.scenarios import (
    SCENARIO_PRESETS,
    ScenarioSchedule,
    describe_scenarios,
    get_scenario,
)
from repro.orchestration import (
    ARTIFACTS,
    SCHEME_REGISTRY,
    ExperimentSpec,
    ResultStore,
    SchemeSpec,
    Sweep,
    SweepObserver,
    available_schemes,
    describe_schemes,
    get_artifact,
    regenerate,
    run_sweep,
)
from repro.observability import (
    MetricsRegistry,
    diff_traces,
    summarize_trace,
    summarize_trace_dir,
    watch_status,
)
from repro.orchestration.fork import build_forked_spec
from repro.version import __version__

__all__ = ["build_cli_parser", "main"]

SCHEME_CHOICES = available_schemes()

SUBCOMMANDS = ("run", "sweep", "regenerate", "fork", "store", "trace", "top")

#: Exit code of a run/sweep/fork that checkpointed itself after an interrupt
#: (mirrors the conventional 128 + SIGINT).
PAUSED_EXIT_CODE = 130


def _scheme_params_from_args(name: str, args: argparse.Namespace) -> dict:
    """The registry parameters a ``run``/``sweep`` invocation implies.

    Each parameter the registry declares for ``name`` reads the flag of the
    same name; an unset flag (``None``) stays out of the spec.  ``--budget``
    also sets CHOCO's ``fraction``.
    """

    params = {param: getattr(args, param) for param in SCHEME_REGISTRY[name].params}
    if name == "choco" and args.budget is not None:
        params["fraction"] = args.budget
    return {param: value for param, value in params.items() if value is not None}


def _flag_groups() -> tuple[argparse.ArgumentParser, ...]:
    """The four flag groups ``run``, ``sweep`` and ``fork`` share, as argparse parents.

    Built fresh per call: a child parser shares its parents' action objects,
    so ``sweep``'s ``set_defaults(checkpoint_every=1)`` on a shared instance
    would leak into ``run`` and ``fork``.
    """

    deployment = argparse.ArgumentParser(add_help=False)
    deployment.add_argument("--nodes", type=int, default=None, help="number of DL nodes")
    deployment.add_argument("--degree", type=int, default=None, help="topology degree")
    deployment.add_argument("--rounds", type=int, default=None, help="communication rounds")

    scheme = argparse.ArgumentParser(add_help=False)
    scheme.add_argument(
        "--scheme",
        nargs="+",
        default=["jwins", "full-sharing"],
        choices=SCHEME_CHOICES,
        help="one or more sharing schemes to compare (the scheme axis of an ad-hoc sweep)",
    )
    scheme.add_argument(
        "--budget",
        type=float,
        default=None,
        help="communication budget in (0, 1]; configures JWINS' alpha distribution and CHOCO's fraction",
    )
    scheme.add_argument(
        "--fraction",
        type=float,
        default=0.37,
        help="sharing fraction for random-sampling / topk (default 0.37 as in Table I)",
    )
    scheme.add_argument("--gamma", type=float, default=0.6, help="CHOCO consensus step size")
    scheme.add_argument("--bits", type=int, default=4, help="bits for the quantized baseline")

    checkpointing = argparse.ArgumentParser(add_help=False)
    checkpointing.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="directory snapshots are written to (one latest snapshot per "
        "experiment, plus a lineage.jsonl provenance log); SIGINT then pauses "
        "at the next round boundary, and re-running the same `sweep` resumes "
        "its in-flight cells mid-spec, byte-identical to an uninterrupted run",
    )
    checkpointing.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="K",
        help="snapshot the full mid-run state every K completed rounds into "
        "--checkpoint-dir (run/fork: 0 = off, K > 0 requires --checkpoint-dir; "
        "sweep: default 1, in effect once --checkpoint-dir is set)",
    )

    telemetry = argparse.ArgumentParser(add_help=False)
    telemetry.add_argument(
        "--metrics",
        action="store_true",
        help="collect engine/network/checkpoint counters and print the "
        "registry after the run (sweep: merged over the executed cells, "
        "identical for any --workers); telemetry only, results are unaffected",
    )
    telemetry.add_argument(
        "--trace",
        default=None,
        metavar="DIR",
        help="write a structured JSONL event trace (manifest, rounds, "
        "messages, evaluations, checkpoints) into DIR, one <spec hash>.trace.jsonl "
        "per executed cell",
    )
    telemetry.add_argument(
        "--status",
        default=None,
        metavar="DIR",
        help="write an atomically updated status.json heartbeat into DIR "
        "(per-cell state, round progress, rounds/sec, ETA, worker pid, last "
        "checkpoint round); watch it live with `jwins-repro top DIR` "
        "(telemetry only; results are unaffected)",
    )
    return deployment, scheme, checkpointing, telemetry


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags only ``run`` has, on top of the four shared groups."""

    parser.add_argument(
        "--workload",
        default="cifar10",
        help="one of the five paper workloads (cifar10, femnist, celeba, shakespeare, movielens)",
    )
    parser.add_argument("--seed", type=int, default=1, help="experiment seed")
    parser.add_argument(
        "--dynamic-topology",
        action="store_true",
        help="re-sample the topology every round (Figure 7 setting; shorthand "
        "for --scenario dynamic)",
    )
    parser.add_argument(
        "--scenario",
        default=None,
        metavar="NAME_OR_JSON",
        help="environment scenario: a named preset (see --list-scenarios) or a "
        "path to a ScenarioSchedule JSON file (churn, partitions, stragglers, "
        "topology rewiring)",
    )
    parser.add_argument(
        "--execution",
        choices=("sync", "async"),
        default="sync",
        help="sync = the paper's lock-step rounds; async = event-driven gossip "
        "where heterogeneous nodes progress at their own pace",
    )
    parser.add_argument(
        "--engine",
        choices=("pernode", "arena"),
        default="pernode",
        help="where node state lives: pernode = one private model per node; "
        "arena = contiguous (N, d) state arenas with one SGD update for all "
        "nodes per local step (byte-identical results, same share path)",
    )
    parser.add_argument(
        "--slowdown",
        type=float,
        default=1.0,
        help="async mode: the slowest node's compute slowdown factor; node speeds "
        "are drawn uniformly from [1, SLOWDOWN] (1.0 = homogeneous cluster)",
    )
    parser.add_argument(
        "--drop-probability",
        type=float,
        default=0.0,
        help="probability that each message delivery is independently dropped",
    )
    parser.add_argument(
        "--resume-from",
        default=None,
        metavar="SNAPSHOT",
        help="continue a paused run from a snapshot file (<spec hash>.ckpt "
        "under --checkpoint-dir); the remaining rounds produce results "
        "byte-identical to an uninterrupted run",
    )
    for registry in ("workloads", "schemes", "scenarios"):
        parser.add_argument(
            f"--list-{registry}",
            action="store_true",
            help=f"print the {registry[:-1]} registry and exit",
        )
    parser.add_argument("--version", action="version", version=f"jwins-repro {__version__}")


def build_cli_parser() -> argparse.ArgumentParser:
    """The full subcommand parser: ``run`` (the default), ``sweep``,
    ``regenerate``, ``fork``, ``store``, ``trace`` and ``top``."""

    parser = argparse.ArgumentParser(
        prog="jwins-repro",
        description="Run decentralized-learning experiments from the JWINS reproduction.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command")

    run_parser = subparsers.add_parser(
        "run",
        help="run one flat scheme comparison (the default subcommand)",
        parents=list(_flag_groups()),
    )
    _add_run_arguments(run_parser)
    run_parser.set_defaults(handler=_run_command)

    sweep_parser = subparsers.add_parser(
        "sweep",
        help="expand a declarative experiment grid and execute it on a worker pool",
        parents=list(_flag_groups()),
    )
    sweep_parser.add_argument(
        "--preset",
        choices=tuple(ARTIFACTS),
        default=None,
        help="run a predefined artifact grid instead of an ad-hoc one",
    )
    sweep_parser.add_argument(
        "--workload",
        nargs="+",
        default=["cifar10"],
        help="workload axis of an ad-hoc sweep",
    )
    sweep_parser.add_argument(
        "--seeds",
        nargs="+",
        type=int,
        default=None,
        help="seed axis (repetitions) of an ad-hoc sweep",
    )
    sweep_parser.add_argument(
        "--scenario",
        nargs="+",
        default=None,
        metavar="NAME_OR_JSON",
        help="scenario axis of an ad-hoc sweep: preset names or ScenarioSchedule "
        "JSON files (presets are sized for --nodes/--rounds, falling back to "
        "the first workload's defaults)",
    )
    sweep_parser.add_argument(
        "--store",
        default="sweep-results.jsonl",
        help="JSONL result store; completed cells found here are skipped (resume)",
    )
    sweep_parser.add_argument(
        "--workers", type=int, default=1, help="worker processes (1 = in-process)"
    )
    sweep_parser.add_argument(
        "--force",
        action="store_true",
        help="re-execute cells even when the store already holds them",
    )
    sweep_parser.add_argument(
        "--scale",
        nargs="+",
        default=None,
        metavar="FIELD=VALUE",
        help="config overrides applied to every cell, e.g. `--scale num_nodes=4 "
        "rounds=2` (shrinks a preset for smoke runs; regenerate needs the same "
        "--scale to find the cells)",
    )
    sweep_parser.add_argument(
        "--dry-run",
        action="store_true",
        help="print the expanded cell list (content hash + label) and exit "
        "without executing anything or touching the store",
    )
    sweep_parser.set_defaults(handler=_sweep_command, checkpoint_every=1)

    _, _, checkpointing, telemetry = _flag_groups()
    fork_parser = subparsers.add_parser(
        "fork",
        help="replay a checkpoint under a mutated config axis (e.g. a different "
        "scenario) without re-running the common prefix",
        parents=[checkpointing, telemetry],
    )
    fork_parser.add_argument(
        "--snapshot", required=True, help="snapshot file to fork from (<spec hash>.ckpt)"
    )
    fork_parser.add_argument(
        "--scenario",
        default=None,
        metavar="NAME_OR_JSON",
        help="scenario to replay the remaining rounds under (preset name or "
        "ScenarioSchedule JSON file)",
    )
    fork_parser.add_argument(
        "--set",
        nargs="+",
        default=None,
        metavar="FIELD=VALUE",
        help="config mutations for the forked future, e.g. `--set rounds=20 "
        "message_drop_probability=0.2` (structural fields like num_nodes are "
        "refused)",
    )
    fork_parser.add_argument(
        "--rounds", type=int, default=None, help="round budget of the forked run"
    )
    fork_parser.add_argument(
        "--store",
        default=None,
        help="JSONL store to append the forked result to (keyed by the forked "
        "spec's hash, which records the fork lineage)",
    )
    fork_parser.set_defaults(handler=_fork_command)

    trace_parser = subparsers.add_parser(
        "trace", help="inspect and compare JSONL run traces written by --trace"
    )
    trace_parser.add_argument(
        "action",
        choices=("summarize", "diff"),
        help="summarize: per-run, per-phase and per-node rollups of a trace "
        "file, or a cross-cell rollup of a sweep trace directory; diff: "
        "structural comparison of two wall-stripped traces with first-"
        "divergence localization and a causal backtrace",
    )
    trace_parser.add_argument(
        "path", help="trace file (or, for summarize, a sweep trace directory)"
    )
    trace_parser.add_argument(
        "path_b",
        nargs="?",
        default=None,
        help="second trace file (diff only)",
    )
    trace_parser.add_argument(
        "--json",
        action="store_true",
        help="diff: emit the forensic report as JSON instead of text",
    )
    trace_parser.set_defaults(handler=_trace_command)

    top_parser = subparsers.add_parser(
        "top",
        help="watch a sweep's status.json heartbeat as a refreshing table",
    )
    top_parser.add_argument(
        "dir",
        help="the --status directory of a running (or finished) sweep, or a "
        "status.json path",
    )
    top_parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="refresh period (default: 2.0)",
    )
    top_parser.add_argument(
        "--once",
        action="store_true",
        help="render a single frame and exit (no screen clearing)",
    )
    top_parser.set_defaults(handler=_top_command)

    store_parser = subparsers.add_parser(
        "store", help="maintain a JSONL result store"
    )
    store_parser.add_argument(
        "action",
        choices=("compact",),
        help="compact: rewrite the store dropping superseded/duplicate/corrupt "
        "rows, printing a before/after summary",
    )
    store_parser.add_argument(
        "--store", required=True, help="JSONL result store to operate on"
    )
    store_parser.set_defaults(handler=_store_command)

    regen_parser = subparsers.add_parser(
        "regenerate",
        help="re-emit the paper artifacts from a result store without recomputing",
    )
    regen_parser.add_argument(
        "--store", required=True, help="JSONL result store produced by `sweep`"
    )
    regen_parser.add_argument(
        "--artifact",
        nargs="+",
        choices=tuple(ARTIFACTS),
        default=None,
        help="artifacts to re-emit (default: all)",
    )
    regen_parser.add_argument(
        "--output",
        default="benchmarks/output",
        help="directory the artifact files are written to",
    )
    regen_parser.add_argument(
        "--scale",
        nargs="+",
        default=None,
        metavar="FIELD=VALUE",
        help="the same config overrides the sweep ran with (content hashes must match)",
    )
    regen_parser.set_defaults(handler=_regenerate_command)
    return parser


def _parse_scale(entries: Sequence[str] | None, flag: str = "--scale") -> dict | None:
    """Parse ``--scale num_nodes=4 rounds=2`` pairs into an override mapping.

    ``flag`` names the CLI option in error messages (``fork`` reuses the
    parser for its ``--set`` mutations).
    """

    if entries is None:
        return None
    scale: dict = {}
    for entry in entries:
        field, separator, raw = entry.partition("=")
        if not separator or not field:
            raise SystemExit(f"{flag} entries must look like FIELD=VALUE, got {entry!r}")
        if raw.lower() in ("true", "false"):
            value: object = raw.lower() == "true"
        else:
            try:
                value = float(raw) if "." in raw or "e" in raw.lower() else int(raw)
            except ValueError:
                value = raw
        scale[field] = value
    return scale


def _resolve_scenario(
    value: str, overrides: Mapping, num_nodes: int, rounds: int
) -> ScenarioSchedule:
    """Turn a ``--scenario`` argument into a schedule, exiting cleanly on errors.

    The schedule is sized for ``overrides`` (the deployment flags; ``fork``:
    the mutations), falling back to the ``num_nodes``/``rounds`` of the
    workload (``fork``: the snapshot) where they leave the deployment alone.
    Preset names win (so a stray local file cannot shadow ``churn``); a value
    ending in ``.json`` or naming an existing file is parsed as a
    :meth:`~repro.scenarios.ScenarioSchedule.to_dict` document.
    """

    num_nodes = int(overrides.get("num_nodes", num_nodes))
    rounds = int(overrides.get("rounds", rounds))
    path = Path(value)
    if value.lower() in SCENARIO_PRESETS:
        return get_scenario(value, num_nodes=num_nodes, rounds=rounds)
    if value.endswith(".json") or path.exists():
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except OSError as error:
            raise SystemExit(f"cannot read scenario file {value!r}: {error}")
        except json.JSONDecodeError as error:
            raise SystemExit(f"scenario file {value!r} is not valid JSON: {error}")
        try:
            schedule = ScenarioSchedule.from_dict(data)
            schedule.validate_for(num_nodes, rounds=rounds)
        except ConfigurationError as error:
            raise SystemExit(f"invalid scenario file {value!r}: {error}")
        return schedule
    try:
        return get_scenario(value, num_nodes=num_nodes, rounds=rounds)
    except ConfigurationError as error:
        raise SystemExit(str(error))


def _load_snapshot(path: str) -> SimulationSnapshot:
    """Load and integrity-check a snapshot file, exiting cleanly on failure."""

    try:
        return SimulationSnapshot.load(path)
    except CheckpointError as error:
        raise SystemExit(str(error))


def _validate_flags(args: argparse.Namespace, cadence_needs_dir: bool = True) -> None:
    """Range-check the scheme and checkpoint flag groups of ``run``/``sweep``/``fork``."""

    budget = getattr(args, "budget", None)  # fork has no scheme flags
    if budget is not None and not 0.0 < budget <= 1.0:
        raise SystemExit("--budget must be in (0, 1]")
    if args.checkpoint_every < 0:
        raise SystemExit("--checkpoint-every must be non-negative")
    # `sweep` passes False: its cadence defaults to 1 and only counts with a directory.
    if cadence_needs_dir and args.checkpoint_every > 0 and args.checkpoint_dir is None:
        raise SystemExit("--checkpoint-every requires --checkpoint-dir")


def _grid_from_flags(args: argparse.Namespace) -> tuple[dict, tuple[SchemeSpec, ...]]:
    """The overrides and scheme specs the deployment/scheme flags imply.

    Shared by ``run`` and the ad-hoc ``sweep``; an unset deployment flag
    stays out of the overrides, and so out of the content hash.
    """

    flags = {"num_nodes": args.nodes, "degree": args.degree, "rounds": args.rounds}
    overrides = {field: value for field, value in flags.items() if value is not None}
    schemes = tuple(
        SchemeSpec(name, _scheme_params_from_args(name, args), label=name)
        for name in args.scheme
    )
    return overrides, schemes


def _print_telemetry_footer(
    metrics: MetricsRegistry | None, title: str, trace_note: str | None
) -> None:
    """The ``[metrics]`` registry and trace-location lines closing a command's output."""

    if metrics is not None:
        print(f"\n[{title}]")
        print(metrics.render())
    if trace_note is not None:
        print(f"\n{trace_note}")


# -- subcommand handlers ---------------------------------------------------------------
def _handle_list_flags(args: argparse.Namespace) -> bool:
    """Print the requested registries; returns True when the CLI should exit 0."""

    if args.list_workloads:
        rows = [
            [name, workload.config.partition, workload.description]
            for name, workload in WORKLOADS.items()
        ]
        width = max(len(name) for name, _, _ in rows)
        for name, partition, description in rows:
            print(f"{name:{width}s}  partition={partition:8s}  {description}")
    if args.list_schemes:
        print(describe_schemes())
    if args.list_scenarios:
        print(describe_scenarios())
    return args.list_workloads or args.list_schemes or args.list_scenarios


class _PrintingObserver(SweepObserver):
    """Progress lines for the ``run``, ``sweep`` and ``fork`` subcommands.

    ``on_start`` fires at submission time, which in pool mode means every
    pending cell at once — so per-cell "running" lines are only printed for
    serial runs, where submission and execution coincide.  ``pause_line``
    words the line of a cell that checkpointed and stopped.
    """

    def __init__(
        self,
        announce_starts: bool = True,
        pause_line: Callable[[ExperimentSpec, int], str] = (
            lambda spec, rounds: f"paused {spec.label} at round {rounds} (snapshot saved)"
        ),
    ) -> None:
        self.announce_starts = announce_starts
        self.pause_line = pause_line

    def on_skip(self, spec, result) -> None:
        print(f"skipping {spec.label} (stored, acc={100 * result.final_accuracy:.1f}%)")

    def on_start(self, spec) -> None:
        if self.announce_starts:
            print(f"running {spec.label} ...")

    def on_result(self, spec, result) -> None:
        print(f"finished {spec.label}: acc={100 * result.final_accuracy:.1f}%")

    def on_pause(self, spec, rounds_completed) -> None:
        print(self.pause_line(spec, rounds_completed))


def _run_command(args: argparse.Namespace) -> int:
    if _handle_list_flags(args):
        return 0
    _validate_flags(args)
    if args.resume_from is not None and len(args.scheme) != 1:
        raise SystemExit("--resume-from resumes one run; pass exactly one --scheme")

    try:
        workload = get_workload(args.workload)
    except ConfigurationError as error:
        raise SystemExit(str(error))
    overrides, schemes = _grid_from_flags(args)
    overrides.update(
        seed=args.seed,
        dynamic_topology=args.dynamic_topology,
        compute_speed_range=(1.0, args.slowdown),
        message_drop_probability=args.drop_probability,
        execution=args.execution,
    )
    if args.engine != "pernode":
        # Conditional so default invocations keep their historical spec hashes.
        overrides["engine"] = args.engine
    scenario = None
    if args.scenario is not None:
        scenario = _resolve_scenario(
            args.scenario, overrides, workload.config.num_nodes, workload.config.rounds
        )
    try:
        # Built here only to validate the flags and print the header; each
        # cell rebuilds task and config from its spec.
        config = workload.make_config(**overrides, scenario=scenario)
        # One cell per --scheme; the overrides pin the CLI seed, so each
        # cell's resolved seed is the --seed value.
        sweep = Sweep(
            name=f"run:{args.workload}",
            workloads=(args.workload,),
            schemes=schemes,
            base_overrides=overrides
            if scenario is None
            else {**overrides, "scenario": scenario.to_dict()},
        )
    except ConfigurationError as error:
        raise SystemExit(f"invalid configuration: {error}")

    scenario_note = "" if config.scenario is None else f" scenario={config.scenario.name}"
    engine_note = "" if config.engine == "pernode" else f" engine={config.engine}"
    print(
        f"workload={workload.name} nodes={config.num_nodes} rounds={config.rounds} "
        f"partition={config.partition} seed={config.seed} execution={config.execution}"
        f"{engine_note}{scenario_note}"
    )
    snapshots = None
    if args.resume_from is not None:
        [cell] = sweep.cells()
        snapshots = {cell.spec.content_hash(): _load_snapshot(args.resume_from)}

    manager = None if args.checkpoint_dir is None else CheckpointManager(args.checkpoint_dir)
    metrics = MetricsRegistry() if args.metrics else None
    try:
        outcome = run_sweep(
            sweep,
            observer=_PrintingObserver(
                # A cell that saved its snapshot names the file to resume from.
                pause_line=lambda spec, rounds: f"paused {spec.scheme.label} at round {rounds}"
                + (
                    ""
                    if manager is None
                    else f"; resume with --resume-from {manager.path_for(spec.content_hash())}"
                )
            ),
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            metrics=metrics,
            trace_dir=args.trace,
            status_dir=args.status,
            snapshots=snapshots,
        )
    except ReproError as error:
        # e.g. a scenario whose topology generator cannot fit the deployment,
        # or a snapshot of another experiment: a clean exit, never a traceback.
        raise SystemExit(f"cannot run: {error}")
    if outcome.interrupted:
        return PAUSED_EXIT_CODE
    print()
    print(
        summarize_results(
            {spec.scheme.label: outcome.result_for(spec) for spec in outcome.specs}
        )
    )
    _print_telemetry_footer(
        metrics,
        "metrics",
        None if args.trace is None else f"trace written to {args.trace}",
    )
    return 0


def _build_adhoc_sweep(args: argparse.Namespace, scale: dict | None) -> Sweep:
    base_overrides, schemes = _grid_from_flags(args)
    axes: dict = {}
    if args.seeds is not None:
        axes["seed"] = tuple(args.seeds)
    if args.scenario:
        reference = get_workload(args.workload[0]).config  # ConfigurationError -> SystemExit
        axes["scenario"] = tuple(
            _resolve_scenario(name, base_overrides, reference.num_nodes, reference.rounds).to_dict()
            for name in args.scenario
        )
    return Sweep(
        name="adhoc",
        workloads=tuple(args.workload),
        schemes=schemes,
        axes=axes,
        base_overrides={**base_overrides, **(scale or {})},
    )


def _sweep_command(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise SystemExit("--workers must be >= 1")
    _validate_flags(args, cadence_needs_dir=False)
    scale = _parse_scale(args.scale)
    try:
        if args.preset is not None:
            sweep = get_artifact(args.preset).build_sweep(scale)
        else:
            sweep = _build_adhoc_sweep(args, scale)
        cells = sweep.cells()  # validates workloads and schemes
        for cell in cells:  # and each config, before a dry run or any cell starts
            cell.spec.config()
    except ConfigurationError as error:
        raise SystemExit(f"invalid sweep: {error}")

    if args.dry_run:
        # Expansion preview: content hash, resolved seed and label per cell,
        # no execution and no store side effects.
        seen: set[str] = set()
        for cell in cells:
            key = cell.spec.content_hash()
            duplicate = "  (duplicate: executes once)" if key in seen else ""
            seen.add(key)
            print(f"{key}  seed={cell.spec.resolved_seed():<10d} {cell.label}{duplicate}")
        print()
        print(f"sweep={sweep.name}: {len(cells)} cell(s), {len(seen)} unique")
        return 0

    store = ResultStore(args.store)
    print(
        f"sweep={sweep.name} cells={len(sweep)} store={args.store} "
        f"workers={args.workers} (stored: {len(store)})"
    )
    if store.repaired_tail_bytes:
        print(f"store: cut off a torn final line ({store.repaired_tail_bytes} bytes)")
    metrics = MetricsRegistry() if args.metrics else None
    try:
        outcome = run_sweep(
            sweep,
            store,
            workers=args.workers,
            observer=_PrintingObserver(announce_starts=args.workers == 1),
            force=args.force,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every if args.checkpoint_dir else 0,
            metrics=metrics,
            trace_dir=args.trace,
            status_dir=args.status,
        )
    except ConfigurationError as error:
        # e.g. an unknown --scale field, which only surfaces when a cell's
        # configuration is materialized.
        raise SystemExit(f"invalid sweep: {error}")
    print()
    print(f"executed {len(outcome.executed)} cell(s), skipped {len(outcome.skipped)}")
    _print_telemetry_footer(
        metrics,
        f"metrics: merged over {len(outcome.executed)} executed cell(s)",
        f"{len(outcome.executed)} trace file(s) written to {args.trace}/"
        if args.trace is not None and outcome.executed
        else None,
    )
    if outcome.interrupted:
        print(
            f"sweep interrupted: {len(outcome.paused)} cell(s) checkpointed "
            f"mid-run; re-run the same command to resume"
        )
        return PAUSED_EXIT_CODE
    print(summarize_results(outcome.labelled_results()))
    return 0


def _fork_command(args: argparse.Namespace) -> int:
    _validate_flags(args)
    snapshot = _load_snapshot(args.snapshot)
    mutations: dict = dict(_parse_scale(args.set, flag="--set") or {})
    if args.rounds is not None:
        mutations["rounds"] = args.rounds
    if args.scenario is not None:
        mutations["scenario"] = _resolve_scenario(
            args.scenario,
            mutations,
            snapshot.config.get("num_nodes", 0),
            snapshot.config.get("rounds", 0),
        ).to_dict()
    try:
        spec = build_forked_spec(snapshot, mutations)
        metrics = MetricsRegistry() if args.metrics else None
        outcome = run_sweep(
            [spec],
            None if args.store is None else ResultStore(args.store),
            observer=_PrintingObserver(
                pause_line=lambda _, rounds: f"paused forked run at round {rounds}"
            ),
            force=True,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            metrics=metrics,
            trace_dir=args.trace,
            status_dir=args.status,
            snapshots={spec.content_hash(): snapshot},
        )
    except ReproError as error:
        raise SystemExit(f"cannot fork: {error}")
    if outcome.interrupted:
        return PAUSED_EXIT_CODE
    key = spec.content_hash()
    print(
        f"forked {spec.label} from round {spec.lineage['round']}: "
        f"parent spec {spec.lineage['parent'][:12]}... -> forked spec {key[:12]}..."
    )
    if args.store is not None:
        print(f"stored forked result under {key} in {args.store}")
    print()
    print(summarize_results({spec.label: outcome.result_for(spec)}))
    # The trace file is named after the *forked* spec's hash, so a fork traced
    # into its parent sweep's directory never overwrites the parent's file.
    trace_path = None if args.trace is None else Path(args.trace, f"{key}.trace.jsonl")
    _print_telemetry_footer(
        metrics, "metrics", None if trace_path is None else f"trace written to {trace_path}"
    )
    return 0


def _trace_command(args: argparse.Namespace) -> int:
    path = Path(args.path)
    if not path.exists():
        raise SystemExit(f"trace {args.path!r} does not exist")
    if args.action == "summarize":
        if args.path_b is not None:
            raise SystemExit("trace summarize takes a single path")
        if args.json:
            raise SystemExit("--json applies to trace diff only")
        try:
            print(summarize_trace_dir(path) if path.is_dir() else summarize_trace(path))
        except (OSError, ValueError) as error:
            raise SystemExit(f"cannot summarize trace {args.path!r}: {error}")
        return 0
    # diff
    if args.path_b is None:
        raise SystemExit("trace diff compares two traces: trace diff A B")
    path_b = Path(args.path_b)
    if not path_b.exists():
        raise SystemExit(f"trace {args.path_b!r} does not exist")
    try:
        report = diff_traces(path, path_b)
    except (OSError, json.JSONDecodeError) as error:
        raise SystemExit(f"cannot diff traces: {error}")
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.identical else 1


#: The longest ``top`` refresh: ``time.sleep`` adds it to the monotonic clock,
#: and the sum must stay within ``threading.TIMEOUT_MAX`` (``sleep(TIMEOUT_MAX)``
#: itself fails with ``EINVAL``).
_MAX_INTERVAL = threading.TIMEOUT_MAX / 2


def _top_command(args: argparse.Namespace) -> int:
    if not 0 < args.interval <= _MAX_INTERVAL:
        raise SystemExit(
            f"--interval must be positive and at most {_MAX_INTERVAL:.0f} seconds, "
            f"got {args.interval:g}"
        )
    return watch_status(args.dir, interval=args.interval, once=args.once)


def _store_command(args: argparse.Namespace) -> int:
    path = Path(args.store)
    if not path.is_file():
        raise SystemExit(f"store {args.store!r} does not exist or is not a file")
    store = ResultStore(path)
    try:
        summary = store.compact()
    except ConfigurationError as error:
        raise SystemExit(str(error))
    print(
        f"compacted {args.store}: {summary['lines_before']} line(s) -> "
        f"{summary['rows_after']} row(s) "
        f"(dropped {summary['superseded']} superseded, {summary['corrupt']} corrupt)"
    )
    return 0


def _regenerate_command(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    if len(store) == 0:
        raise SystemExit(f"store {args.store!r} is empty or missing; run `jwins-repro sweep` first")
    try:
        written = regenerate(
            store, args.output, names=args.artifact, scale=_parse_scale(args.scale)
        )
    except ReproError as error:
        raise SystemExit(f"cannot regenerate: {error}")
    for path in written:
        print(f"wrote {path}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""

    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        argv = ["run"]
    elif argv[0] not in SUBCOMMANDS and argv[0] not in ("-h", "--help", "--version"):
        # Backwards compatibility: a flat invocation defaults to `run`.
        argv = ["run", *argv]
    args = build_cli_parser().parse_args(argv)
    handler: Callable[[argparse.Namespace], int] = args.handler
    return handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    raise SystemExit(main())
