"""Seeded scenario fuzzer: the determinism contract as a property test.

The determinism oracles (seed pinning, sync-vs-seed, serial-vs-pool,
interrupt-resume, wall-stripped traces, arena-vs-pernode) run over two sets
of cases: a seeded generator's *distribution* of hostile schedules, and a
table of named :data:`PINNED_CASES` (larger deployments, other workloads,
schemes and budgets) that ``--pinned`` runs.  The generator produces random
well-formed :class:`~repro.scenarios.schedule.ScenarioSchedule` instances
(overlapping outages, nested partitions, Byzantine windows, straggler
windows, rewiring policies, boundary rounds) and every case must survive

- ``rerun``    — executing the same spec twice yields byte-identical results
  and byte-identical wall-stripped structured traces,
- ``workers``  — a 2-cell sweep stores byte-identical JSONL and writes
  byte-identical wall-stripped per-cell traces on 1 and 2 workers,
- ``resume``   — interrupt mid-run + resume from the snapshot file it wrote
  equals the uninterrupted run,
- ``engines``  — the ``engine=arena`` override changes neither the result nor the
  wall-stripped trace (the ``manifest`` record aside: its ``spec_hash`` names
  the override),

and one invariant the coefficient-domain JWINS round rests on:

- ``coefficients`` — at every round end, each node's ``F_start`` (the
  coefficients JWINS keeps of the model its next round starts from) matches
  the DWT of the node's actual model to :data:`COEFFICIENT_TOLERANCE`.

A :class:`FuzzCase` describes its whole run (workload, scheme, budget,
deployment, schedule), so a failure report is the case alone.  Every oracle
traces the runs it makes, so a failing ``rerun``, ``workers``
or ``engines`` verdict carries the forensic
:class:`~repro.observability.forensics.TraceDiff` of the runs that failed —
evidence even for a failure that never reproduces.  On failure the schedule
is *shrunk* (events dropped, windows truncated, the topology policy
simplified, rounds reduced) to a minimal still-failing case and printed as
reproducible JSON, with the diff of its last failing oracle call, replayable
with ``--replay``.

Run it directly::

    python -m repro.scenarios.fuzz --cases 25 --seed 0
    python -m repro.scenarios.fuzz --pinned

``--self-test`` deliberately installs a nondeterministic Byzantine send path
(:func:`install_chaos`) and asserts the fuzzer catches and shrinks it — a
test that the alarm itself rings.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from repro.core.jwins import JwinsScheme
from repro.exceptions import ConfigurationError, ExperimentPaused
from repro.observability.forensics import TraceDiff, diff_traces
from repro.observability.trace import TraceEmitter, read_trace, strip_wall
from repro.orchestration.pool import run_sweep
from repro.orchestration.schemes import SchemeSpec
from repro.orchestration.spec import ExperimentSpec
from repro.orchestration.store import ResultStore
from repro.scenarios.presets import get_scenario
from repro.scenarios.schedule import (
    BYZANTINE_MODES,
    ByzantineWindow,
    NodeOutage,
    PartitionWindow,
    ScenarioSchedule,
    StragglerWindow,
)
from repro.simulation.engine import SimulationObserver, Simulator
from repro.topology.policy import GeneratorPolicy
from repro.utils.records import Record
from repro.utils.rng import derive_rng

__all__ = [
    "COEFFICIENT_TOLERANCE",
    "ORACLES",
    "PINNED_CASES",
    "FuzzCase",
    "coefficient_drift",
    "generate_case",
    "install_chaos",
    "main",
    "run_case",
    "shrink_case",
]

#: Oracle names, in execution order (cheapest first).
ORACLES = ("rerun", "coefficients", "workers", "resume", "engines")

#: How far ``F_start`` may sit from the DWT of the model, relative to the
#: latter's norm.  Not 1e-12: the db2/sym2 taps are orthonormal only to
#: ``sum(h**2) - 1 = -5.7e-13``, so the projection that yields ``F_start``
#: agrees with ``forward(inverse(c))`` to about 1.3e-12.
COEFFICIENT_TOLERANCE = 1e-11

#: Default workload/scheme of a generated case — the cheapest registered workload.
DEFAULT_WORKLOAD = "movielens"
DEFAULT_SCHEME = "jwins"

#: Topology generators safe at fuzz scale (4+ nodes, degree 2).
_FUZZ_GENERATORS = ("random-regular", "ring", "fully-connected", "small-world")


# -- case model --------------------------------------------------------------------
@dataclass(frozen=True)
class FuzzCase(Record):
    """One property-test case: a schedule plus everything else its run needs.

    The generator draws none of ``workload``, ``scheme``, ``degree`` and
    ``budget``: a generated case keeps their defaults (``--scheme`` swaps the
    scheme), and the :data:`PINNED_CASES` set them.  ``budget`` is the
    scheme's ``budget`` parameter, ``None`` for its default.
    """

    index: int
    num_nodes: int
    rounds: int
    execution: str
    drop_probability: float
    run_seed: int
    schedule: ScenarioSchedule
    workload: str = DEFAULT_WORKLOAD
    scheme: str = DEFAULT_SCHEME
    degree: int = 2
    budget: float | None = None

    def spec(self, seed_offset: int = 0) -> ExperimentSpec:
        """The orchestration cell this case executes as."""

        overrides: dict[str, Any] = {
            "num_nodes": self.num_nodes,
            "degree": self.degree,
            "rounds": self.rounds,
            "local_steps": 1,
            "batch_size": 4,
            "eval_every": 2,
            "eval_test_samples": 32,
            "seed": self.run_seed + seed_offset,
            "execution": self.execution,
            "message_drop_probability": self.drop_probability,
            "scenario": self.schedule.to_dict(),
        }
        if self.execution == "async":
            overrides["compute_speed_range"] = [1.0, 2.0]
            overrides["link_latency_jitter_seconds"] = 0.01
        params = {} if self.budget is None else {"budget": self.budget}
        return ExperimentSpec(
            workload=self.workload,
            scheme=SchemeSpec(self.scheme, params),
            overrides=overrides,
        )

    @property
    def summary(self) -> str:
        """One-line shape description for progress output."""

        schedule = self.schedule
        return (
            f"{self.workload}/{self.spec().scheme.label} nodes={self.num_nodes} "
            f"degree={self.degree} rounds={self.rounds} exec={self.execution} "
            f"drop={self.drop_probability:g} "
            f"outages={len(schedule.outages)} partitions={len(schedule.partitions)} "
            f"stragglers={len(schedule.stragglers)} byzantine={len(schedule.byzantine)} "
            f"rewire={schedule.topology.rewire_every}"
        )


# -- generation --------------------------------------------------------------------
def _window(rng: np.random.Generator, rounds: int) -> tuple[int, int]:
    """A well-formed window: always opens before ``rounds``, boundary-biased."""

    start = 0 if rng.random() < 0.3 else int(rng.integers(0, rounds))
    if rng.random() < 0.25:
        end = rounds  # boundary: the window runs to the very last round
    else:
        end = start + 1 + int(rng.integers(0, 3))
    return start, max(start + 1, end)


def _node_subset(rng: np.random.Generator, num_nodes: int, allow_all: bool) -> tuple[int, ...]:
    """A non-empty node subset (never every node unless ``allow_all``)."""

    upper = num_nodes if allow_all else num_nodes - 1
    size = 1 + int(rng.integers(0, upper))
    chosen = rng.choice(num_nodes, size=size, replace=False)
    return tuple(sorted(int(node) for node in chosen))


def generate_schedule(
    rng: np.random.Generator,
    num_nodes: int,
    rounds: int,
    name: str = "fuzz",
    ensure_byzantine: bool = False,
) -> ScenarioSchedule:
    """One random well-formed schedule over ``num_nodes`` x ``rounds``.

    Node 0 is kept permanently online so no combination of overlapping
    outages can empty a round (``state_at`` rejects rounds with zero active
    nodes); everything else — overlap, nesting, permanent departures, windows
    running past the end of the run — is fair game.
    """

    generator = str(rng.choice(_FUZZ_GENERATORS))
    params: tuple[tuple[str, Any], ...] = ()
    if generator == "small-world":
        params = (("beta", float(rng.choice([0.1, 0.2, 0.5]))),)
    topology = GeneratorPolicy(
        generator=generator,
        rewire_every=int(rng.choice([0, 0, 0, 1, 2, 3])),
        params=params,
    )

    outages = []
    for _ in range(int(rng.integers(0, 4))):
        start, end = _window(rng, rounds)
        outages.append(
            NodeOutage(
                node=int(rng.integers(1, num_nodes)),  # node 0 never goes down
                start_round=start,
                end_round=None if rng.random() < 0.1 else end,
            )
        )

    partitions = []
    for _ in range(int(rng.integers(0, 3))):
        start, end = _window(rng, rounds)
        order = [int(node) for node in rng.permutation(num_nodes)]
        cut = 1 + int(rng.integers(0, num_nodes - 1))
        groups: tuple[tuple[int, ...], ...]
        if num_nodes - cut >= 2 and rng.random() < 0.3:
            # Leave the tail out of every group: the implicit remainder group.
            second = cut + 1 + int(rng.integers(0, num_nodes - cut - 1))
            groups = (tuple(order[:cut]), tuple(order[cut:second]))
        else:
            groups = (tuple(order[:cut]), tuple(order[cut:]))
        partitions.append(
            PartitionWindow(start_round=start, end_round=end, groups=groups)
        )

    stragglers = []
    for _ in range(int(rng.integers(0, 3))):
        start, end = _window(rng, rounds)
        stragglers.append(
            StragglerWindow(
                start_round=start,
                end_round=end,
                nodes=_node_subset(rng, num_nodes, allow_all=True),
                slowdown=float(1.0 + rng.integers(1, 9) / 2.0),
            )
        )

    byzantine = []
    for _ in range(int(rng.integers(0, 3))):
        start, end = _window(rng, rounds)
        byzantine.append(
            ByzantineWindow(
                start_round=start,
                end_round=end,
                nodes=_node_subset(rng, num_nodes, allow_all=False),
                mode=str(rng.choice(BYZANTINE_MODES)),
            )
        )
    if ensure_byzantine and not byzantine:
        byzantine.append(
            ByzantineWindow(
                start_round=0,
                end_round=rounds,
                nodes=(num_nodes - 1,),
                mode="random-gradient",
            )
        )

    return ScenarioSchedule(
        name=name,
        topology=topology,
        outages=tuple(outages),
        partitions=tuple(partitions),
        stragglers=tuple(stragglers),
        byzantine=tuple(byzantine),
    )


def generate_case(seed: int, index: int, ensure_byzantine: bool = False) -> FuzzCase:
    """Case ``index`` of the fuzz run seeded with ``seed`` (pure function)."""

    rng = derive_rng(seed, "scenario-fuzz", index)
    num_nodes = int(rng.integers(4, 7))
    rounds = int(rng.integers(3, 7))
    return FuzzCase(
        index=index,
        num_nodes=num_nodes,
        rounds=rounds,
        execution="sync" if rng.random() < 0.5 else "async",
        drop_probability=float(rng.choice([0.0, 0.0, 0.15])),
        run_seed=int(rng.integers(1, 2**16)),
        schedule=generate_schedule(
            rng, num_nodes, rounds, name=f"fuzz-{index}", ensure_byzantine=ensure_byzantine
        ),
    )


# -- pinned cases ------------------------------------------------------------------
#: Named cases every oracle runs on under ``--pinned``: 3-round
#: ``churn-partition`` cells without message drops, on deployments, workloads,
#: schemes and budgets the generator never draws.  They take the generated
#: cases' training constants (``local_steps`` 1, ``batch_size`` 4,
#: ``eval_every`` 2, ``eval_test_samples`` 32, and an async case's speed
#: range and latency jitter), not the workload defaults.
#:
#: * ``movielens-4-*``: JWINS and full sharing, lock-step and event loop, on
#:   4 nodes of degree 2.  Their seeds are the ones the unseeded
#:   ``sweep --nodes 4 --degree 2 --rounds 3 --scenario churn-partition``
#:   cells resolve to.
#: * ``movielens-24-*``: 24 nodes of degree 4, so the count-groups a JWINS
#:   pass ranks, selects and index-codes hold several rows each; budget 0.2
#:   adds the two-point cut-off (one large group split across pack chunks,
#:   one ``count == c`` group); full sharing runs a baseline scheme on the
#:   default per-row hooks and the arena's row write-back.
#: * ``cifar10-20-*``: 20 x 18,490 elements exceed ``jwins._PASS_ELEMENTS``,
#:   so every JWINS stage is cut into two passes.
_PINNED_ROWS = (
    # name, workload, nodes, degree, execution, scheme, seed, budget
    ("movielens-4-sync-jwins", "movielens", 4, 2, "sync", "jwins", 1900216204, None),
    ("movielens-4-sync-full-sharing", "movielens", 4, 2, "sync", "full-sharing", 1409816992, None),
    ("movielens-4-async-jwins", "movielens", 4, 2, "async", "jwins", 1781563462, None),
    ("movielens-4-async-full-sharing", "movielens", 4, 2, "async", "full-sharing", 407712805, None),
    ("movielens-24-jwins", "movielens", 24, 4, "sync", "jwins", 1, None),
    ("movielens-24-full-sharing", "movielens", 24, 4, "sync", "full-sharing", 1, None),
    ("movielens-24-jwins-budget-0.2", "movielens", 24, 4, "sync", "jwins", 1, 0.2),
    ("cifar10-20-jwins", "cifar10", 20, 4, "sync", "jwins", 1, None),
    ("cifar10-20-full-sharing", "cifar10", 20, 4, "sync", "full-sharing", 1, None),
)
PINNED_CASES: dict[str, FuzzCase] = {
    name: FuzzCase(
        index=index,
        num_nodes=nodes,
        rounds=3,
        execution=execution,
        drop_probability=0.0,
        run_seed=seed,
        schedule=get_scenario("churn-partition", num_nodes=nodes, rounds=3),
        workload=workload,
        scheme=scheme,
        degree=degree,
        budget=budget,
    )
    for index, (name, workload, nodes, degree, execution, scheme, seed, budget) in enumerate(
        _PINNED_ROWS
    )
}


# -- oracles -----------------------------------------------------------------------
#: A failing oracle's verdict: its detail, and the forensic diff of the traces
#: of the very runs that failed (``None`` where traces cannot see the fault).
Failure = tuple[str, TraceDiff | None]


def _traced_result_json(spec: ExperimentSpec, path: Path) -> str:
    """Run ``spec`` with its trace written to ``path``; the result as JSON."""

    with TraceEmitter(path) as emitter:
        return json.dumps(spec.run(observers=(emitter,)).to_dict(), sort_keys=True)


def _divergence(
    a: Path | list[dict[str, Any]],
    b: Path | list[dict[str, Any]],
    a_label: str,
    b_label: str,
) -> TraceDiff | None:
    """The forensic diff of two traces, ``None`` when they agree."""

    diff = diff_traces(a, b, a_label=a_label, b_label=b_label)
    return None if diff.identical else diff


def _oracle_rerun(case: FuzzCase) -> Failure | None:
    spec = case.spec()
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "run-1.trace.jsonl", Path(tmp) / "run-2.trace.jsonl"
        if _traced_result_json(spec, first) != _traced_result_json(spec, second):
            detail = "re-running the identical spec produced a different result"
        elif strip_wall(first) != strip_wall(second):
            detail = "wall-stripped traces differ between identical runs"
        else:
            return None
        return detail, _divergence(first, second, "run-1", "run-2")


def _oracle_workers(case: FuzzCase) -> Failure | None:
    # Two distinct cells (consecutive seeds), because a single pending cell
    # executes in-process regardless of the worker count.
    specs = [case.spec(), case.spec(seed_offset=1)]
    with tempfile.TemporaryDirectory() as tmp:
        serial, pool = Path(tmp) / "serial", Path(tmp) / "pool"
        run_sweep(specs, ResultStore(Path(tmp) / "serial.jsonl"), workers=1, trace_dir=serial)
        run_sweep(specs, ResultStore(Path(tmp) / "pool.jsonl"), workers=2, trace_dir=pool)
        stores_equal = (
            (Path(tmp) / "serial.jsonl").read_bytes() == (Path(tmp) / "pool.jsonl").read_bytes()
        )
        # The first cell whose serial and pooled wall-stripped traces disagree.
        names = [f"{spec.content_hash()}.trace.jsonl" for spec in specs]
        name = next(
            (n for n in names if strip_wall(serial / n) != strip_wall(pool / n)), None
        )
        if stores_equal and name is None:
            return None
        diff = None if name is None else _divergence(
            serial / name, pool / name, f"serial:{name[:12]}", f"pool:{name[:12]}"
        )
    if not stores_equal:
        return "1-worker and 2-worker sweep stores are not byte-identical", diff
    return "wall-stripped traces differ between the 1-worker and 2-worker sweeps", diff


class _PauseAt(SimulationObserver):
    """Asks the run it watches to pause once ``rounds`` rounds have completed."""

    def __init__(self, rounds: int) -> None:
        self.rounds = rounds

    def on_run_start(self, simulator: Simulator) -> None:
        self.simulator = simulator

    def on_round_end(self, round_index: int, node_id: int | None, now: float) -> None:
        if self.simulator.result.rounds_completed >= self.rounds:
            self.simulator.request_checkpoint_stop()


def _oracle_resume(case: FuzzCase) -> Failure | None:
    # The road a preemptible sweep takes: the pause writes the snapshot file,
    # and the second run finds it under the spec's hash and resumes from it.
    spec = case.spec()
    uninterrupted = json.dumps(spec.run().to_dict(), sort_keys=True)
    stop_after = max(1, case.rounds // 2)
    with tempfile.TemporaryDirectory() as tmp:
        try:
            spec.run(checkpoint_dir=tmp, observers=(_PauseAt(stop_after),))
            return f"requested a pause at round {stop_after} but the run never stopped", None
        except ExperimentPaused as paused:
            paused_at = paused.snapshot.rounds_completed
        resumed = spec.run(checkpoint_dir=tmp)
    if json.dumps(resumed.to_dict(), sort_keys=True) != uninterrupted:
        return (
            f"interrupt at round {paused_at} + resume differs "
            "from the uninterrupted run",
            None,
        )
    return None


def _oracle_engines(case: FuzzCase) -> Failure | None:
    spec = case.spec()
    results, events = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for variant in (spec, replace(spec, overrides={**spec.overrides, "engine": "arena"})):
            path = Path(tmp) / f"engine-{len(results)}.trace.jsonl"
            results.append(_traced_result_json(variant, path))
            # The manifest's ``spec_hash`` names the override: leave it out.
            events.append([r for r in read_trace(path) if r.get("kind") != "manifest"])
    if results[0] != results[1]:
        detail = "the arena engine's result differs from the per-node engine's"
    elif strip_wall(events[0]) != strip_wall(events[1]):
        detail = "the arena engine's wall-stripped trace differs from the per-node engine's"
    else:
        return None
    return detail, _divergence(events[0], events[1], "pernode", "arena")


def coefficient_drift(node: Any) -> float | None:
    """``|F_start - DWT(model)| / |DWT(model)|`` of a JWINS node, else ``None``.

    ``None`` too before the node's first round, when ``F_start`` is unset.
    """

    scheme = node.scheme
    if not isinstance(scheme, JwinsScheme) or scheme.start_coefficients is None:
        return None
    expected = scheme.transform.forward(node.get_parameters())
    error = np.linalg.norm(scheme.start_coefficients - expected)
    return float(error / max(np.linalg.norm(expected), np.finfo(np.float64).tiny))


def _oracle_coefficients(case: FuzzCase) -> Failure | None:
    spec = case.spec()
    task, factory, config, _ = spec.build()
    simulator = Simulator(task, factory, config, scheme_name=spec.scheme.label)
    failures: list[str] = []

    def check(round_index: int, node_id: int | None, now: float) -> None:
        # Lock-step ends a round for every node; gossip for the one whose
        # round just ended (the others may be mid-round, holding a trained model).
        nodes = simulator.nodes if node_id is None else [simulator.nodes[node_id]]
        for node in nodes:
            drift = coefficient_drift(node)
            if drift is not None and not drift <= COEFFICIENT_TOLERANCE and not failures:
                failures.append(
                    f"after round {round_index}, node {node.node_id}'s F_start is "
                    f"{drift:.2e} (relative) from the DWT of its model"
                )

    simulator.on_round_end(check)
    simulator.run()
    return (failures[0], None) if failures else None


_ORACLE_FUNCS: dict[str, Callable[[FuzzCase], Failure | None]] = {
    "rerun": _oracle_rerun,
    "coefficients": _oracle_coefficients,
    "workers": _oracle_workers,
    "resume": _oracle_resume,
    "engines": _oracle_engines,
}


def run_case(
    case: FuzzCase, oracles: tuple[str, ...] = ORACLES
) -> tuple[str, Failure] | None:
    """Run ``case`` through the oracles; ``(oracle, failure)`` on first failure."""

    for name in oracles:
        failure = _ORACLE_FUNCS[name](case)
        if failure is not None:
            return name, failure
    return None


# -- shrinking ---------------------------------------------------------------------
def _without_index(values: tuple[Any, ...], index: int) -> tuple[Any, ...]:
    return values[:index] + values[index + 1 :]


def _truncated(window: Any) -> Any:
    """The same window reduced to a single round."""

    return replace(window, end_round=window.start_round + 1)


def _clip_schedule(schedule: ScenarioSchedule, rounds: int) -> ScenarioSchedule:
    """Drop every window that could no longer open in a ``rounds``-round run."""

    return replace(
        schedule,
        outages=tuple(o for o in schedule.outages if o.start_round < rounds),
        partitions=tuple(p for p in schedule.partitions if p.start_round < rounds),
        stragglers=tuple(s for s in schedule.stragglers if s.start_round < rounds),
        byzantine=tuple(b for b in schedule.byzantine if b.start_round < rounds),
    )


def _shrink_candidates(case: FuzzCase) -> Iterator[FuzzCase]:
    """Strictly-smaller variants of ``case``, most aggressive first."""

    schedule = case.schedule
    for field_name in ("byzantine", "stragglers", "partitions", "outages"):
        events = getattr(schedule, field_name)
        for index in range(len(events)):
            yield replace(
                case,
                schedule=replace(
                    schedule, **{field_name: _without_index(events, index)}
                ),
            )
    if schedule.topology != GeneratorPolicy():
        yield replace(case, schedule=replace(schedule, topology=GeneratorPolicy()))
    if case.drop_probability > 0.0:
        yield replace(case, drop_probability=0.0)
    if case.rounds > 2:
        yield replace(
            case,
            rounds=case.rounds - 1,
            schedule=_clip_schedule(schedule, case.rounds - 1),
        )
    for field_name in ("byzantine", "stragglers", "partitions", "outages"):
        events = getattr(schedule, field_name)
        for index, window in enumerate(events):
            if window.end_round is not None and window.end_round > window.start_round + 1:
                shrunk = _without_index(events, index) + (_truncated(window),)
                yield replace(case, schedule=replace(schedule, **{field_name: shrunk}))


def shrink_case(
    case: FuzzCase, still_fails: Callable[[FuzzCase], bool], max_steps: int = 100
) -> FuzzCase:
    """Greedily minimize ``case`` while ``still_fails`` holds.

    Classic delta-debugging descent: at each step take the first smaller
    variant that still reproduces the failure, stop at a fixpoint (or after
    ``max_steps`` accepted reductions).
    """

    current = case
    for _ in range(max_steps):
        for candidate in _shrink_candidates(current):
            if still_fails(candidate):
                current = candidate
                break
        else:
            return current
    return current


# -- chaos (self-test) -------------------------------------------------------------
def install_chaos() -> Callable[[], None]:
    """Deliberately break determinism in the Byzantine send path.

    Wraps :meth:`~repro.simulation.engine.Simulator.apply_byzantine` so every
    corrupted model is additionally perturbed by a process-global counter —
    run-order-dependent state of exactly the kind the determinism rules ban.
    Two executions of the same hostile schedule then diverge, which the
    ``rerun`` oracle must catch.  Returns an uninstaller; only ``--self-test``
    ever calls this.
    """

    original = Simulator.apply_byzantine
    counter = itertools.count(1)

    def chaotic(self, node_id, round_index, state, params_start, params_trained):
        corrupted = original(
            self, node_id, round_index, state, params_start, params_trained
        )
        if state.byzantine_mode(node_id) is not None:
            corrupted = corrupted + 1e-3 * next(counter)
        return corrupted

    Simulator.apply_byzantine = chaotic

    def uninstall() -> None:
        Simulator.apply_byzantine = original

    return uninstall


# -- runner ------------------------------------------------------------------------
def _shrink_failure(case: FuzzCase, oracle: str, failure: Failure) -> tuple[FuzzCase, Failure]:
    """The minimal still-failing case and the verdict of its last failing run.

    The shrinker accepts exactly the candidates whose oracle call fails, so
    the last failing call is the returned case's: its trace diff comes from
    the runs that failed, with no extra execution.
    """

    last = failure

    def still_fails(candidate: FuzzCase) -> bool:
        nonlocal last
        verdict = _ORACLE_FUNCS[oracle](candidate)
        if verdict is not None:
            last = verdict
        return verdict is not None

    return shrink_case(case, still_fails), last


def _failure_report(
    origin: dict[str, Any], case: FuzzCase, oracle: str, failure: Failure
) -> dict[str, Any]:
    """The replayable JSON of a failure; ``origin`` names where the case came from."""

    detail, diff = failure
    report = {
        "fuzzer": "repro.scenarios.fuzz",
        **origin,
        "oracle": oracle,
        "detail": detail,
        "case": case.to_dict(),
        "replay": "python -m repro.scenarios.fuzz --replay <this file>",
    }
    if diff is not None:
        report["forensics"] = diff.to_dict()
    return report


def _cases(args: argparse.Namespace) -> list[tuple[str, dict[str, Any], FuzzCase]]:
    """``(name, origin, case)`` of every case the invocation runs."""

    if args.pinned:
        return [(name, {"pinned": name}, case) for name, case in PINNED_CASES.items()]
    return [
        (
            f"{index:3d}",
            {"seed": args.seed},
            replace(generate_case(args.seed, index), scheme=args.scheme),
        )
        for index in range(args.cases)
    ]


def _fuzz(args: argparse.Namespace) -> int:
    oracles = tuple(args.oracles.split(","))
    unknown = sorted(set(oracles) - set(ORACLES))
    if unknown:
        print(f"unknown oracle(s): {', '.join(unknown)}; available: {', '.join(ORACLES)}")
        return 2
    cases = _cases(args)
    for name, origin, case in cases:
        found = run_case(case, oracles)
        if found is None:
            print(f"case {name}: ok       {case.summary}")
            continue
        oracle, failure = found
        shrunk, failure = _shrink_failure(case, oracle, failure)
        detail, diff = failure
        report = _failure_report(origin, shrunk, oracle, failure)
        print(f"case {name}: FAILED   {case.summary}")
        print(f"oracle {oracle!r}: {detail}")
        if diff is not None:
            print("forensic trace diff (first divergence, shrunk case):")
            print(diff.render())
        else:
            print(
                "forensics: the failing runs' traces agree; the failure is "
                f"specific to the {oracle!r} oracle's path (not visible in traces)"
            )
        print("minimal failing case (JSON, replayable with --replay):")
        print(json.dumps(report, indent=2, sort_keys=True))
        if args.report:
            Path(args.report).write_text(
                json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
            print(f"report written to {args.report}")
        return 1
    source = "pinned" if args.pinned else f"seed {args.seed}"
    print(f"fuzz: {len(cases)} case(s) passed {len(oracles)} oracle(s) ({source})")
    return 0


def _self_test(args: argparse.Namespace) -> int:
    """Prove the alarm rings: inject nondeterminism, demand a shrunk failure."""

    uninstall = install_chaos()
    try:
        for index in range(args.cases):
            case = replace(
                generate_case(args.seed, index, ensure_byzantine=True), scheme=args.scheme
            )
            failure = _oracle_rerun(case)
            if failure is None:
                print(f"self-test case {index}: injected nondeterminism NOT caught")
                return 1
            shrunk, failure = _shrink_failure(case, "rerun", failure)
            if not shrunk.schedule.byzantine:
                print("self-test: shrinking removed the byzantine window the bug needs")
                return 1
            diff = failure[1]
            if diff is None or diff.round is None:
                print(
                    "self-test: forensics failed to localize the injected "
                    "divergence to a round"
                )
                return 1
            report = _failure_report({"seed": args.seed}, shrunk, "rerun", failure)
            print(f"self-test case {index}: caught and shrunk to:")
            print(json.dumps(report, indent=2, sort_keys=True))
            print(
                f"self-test case {index}: forensics localized the divergence "
                f"to round {diff.round} (seq {diff.seq}, kind {diff.kind}):"
            )
            print(diff.render())
    finally:
        uninstall()
    print(f"self-test: injected nondeterminism caught on all {args.cases} case(s)")
    return 0


def _replay(args: argparse.Namespace) -> int:
    try:
        report = json.loads(Path(args.replay).read_text(encoding="utf-8"))
        if not isinstance(report, dict) or not isinstance(report.get("case"), dict):
            raise ConfigurationError("not a fuzz report: it has no 'case' mapping")
        # A report written before the case carried its workload and scheme
        # keeps them at the top level.
        legacy = {key: report[key] for key in ("workload", "scheme") if key in report}
        case = FuzzCase.from_dict({**legacy, **report["case"]})
    except (OSError, json.JSONDecodeError, ConfigurationError) as error:
        print(f"cannot replay {args.replay!r}: {error}")
        return 2
    print(f"replaying case: {case.summary}")
    found = run_case(case)
    if found is None:
        print("replay: every oracle passed (the failure did not reproduce)")
        return 0
    oracle, (detail, _) = found
    print(f"replay: oracle {oracle!r} still fails: {detail}")
    return 1


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro.scenarios.fuzz``."""

    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios.fuzz",
        description="Property-test the determinism contract over random hostile schedules.",
    )
    parser.add_argument("--cases", type=int, default=25, help="number of generated cases")
    parser.add_argument("--seed", type=int, default=0, help="fuzz generator seed")
    parser.add_argument(
        "--pinned",
        action="store_true",
        help="run the named pinned cases instead of generated ones "
        "(--cases, --seed and --scheme do not apply)",
    )
    parser.add_argument(
        "--scheme", default=DEFAULT_SCHEME, help="scheme of the generated cases"
    )
    parser.add_argument(
        "--oracles",
        default=",".join(ORACLES),
        help=f"comma-separated subset of: {', '.join(ORACLES)}",
    )
    parser.add_argument(
        "--report", default=None, help="also write a failing case's JSON to this path"
    )
    parser.add_argument(
        "--replay", default=None, help="re-run the failing case stored in this JSON file"
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="inject nondeterminism into the byzantine send path and require a catch",
    )
    args = parser.parse_args(argv)
    if args.cases < 0:
        print(f"--cases must be non-negative, got {args.cases}")
        return 2

    if args.replay:
        return _replay(args)
    if args.self_test:
        return _self_test(args)
    return _fuzz(args)


if __name__ == "__main__":
    sys.exit(main())
