"""The five benchmark workloads and the closed loop that runs them.

Every workload is a closed loop with one client: the next operation (a round,
a sweep cell, a fork) starts when the previous one ends.  A workload builds
its inputs from the seed alone — the program under test only ever receives the
generated task and configuration — and :meth:`execute` returns one
:class:`Repeat`: the set-up time, the wall interval of every operation (so
repeats can be combined operation by operation), the simulated statistics and
a digest of the outputs.

Why each workload exists is recorded in its ``why`` (also in BENCHMARK.json and
README.md); sizes are frozen there too.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, ContextManager

import numpy as np

from repro.checkpoint import CheckpointManager
from repro.core import JwinsConfig, jwins_factory
from repro.core.interface import SchemeFactory
from repro.datasets.base import Dataset, LearningTask, classification_accuracy
from repro.datasets.synthetic import make_class_images
from repro.evaluation import get_workload
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import MLPClassifier
from repro.observability.contract import scrub_telemetry
from repro.observability.metrics import MetricsRegistry
from repro.orchestration import ResultStore, Sweep, SweepObserver, run_fork, run_sweep
from repro.scenarios.presets import get_scenario
from repro.simulation import ExperimentConfig, ExperimentResult, Simulator
from repro.topology.policy import GeneratorPolicy

from benchmarks.perf.spans import Tracer

__all__ = ["Repeat", "SimulatorWorkload", "SweepWorkload", "WORKLOADS"]

clock = time.perf_counter

#: ``ExperimentConfig.seed`` of every workload.  ``--seed`` drives the *data*
#: (the task seed) only: the config seed also draws JWINS's randomized cut-off
#: (alpha in {0.10 .. 0.40, 1.00}, so one draw has a coefficient of variation of
#: 0.85), and with it the work of a 4-node round moved by +-20% from seed to
#: seed — variation no estimator can remove and the benchmark contract forbids.
CONFIG_SEED = 7


@dataclass
class Repeat:
    """What one execution of a workload measured and produced."""

    setup_s: float
    #: Wall seconds of the whole run (everything after set-up).
    run_s: float
    #: Operation class -> wall seconds of every operation, in a deterministic
    #: order that is the same in every repeat of the same workload and seed.
    ops: dict[str, list[float]]
    #: SHA-256 over the run's outputs with telemetry fields scrubbed.
    digest: str
    node_rounds: int
    total_bytes: float
    final_accuracy: float
    sim_time_s: float
    #: Operations attempted / failed; an operation is a round (a cell or a
    #: fork for the sweep), a failure a missing round, a non-finite loss or a
    #: failed output check.
    attempted: int
    failed: int
    #: Simulated event counts from the attached registry (traced run).
    counts: dict[str, float] = field(default_factory=dict)
    #: How many consecutive ``ops["round"]`` intervals make up one round.
    steps_per_round: int = 1


def _span(tracer: Tracer | None, name: str) -> ContextManager[None]:
    return nullcontext() if tracer is None else tracer.span(name)


def result_digest(result: ExperimentResult) -> str:
    """SHA-256 of ``result.to_dict()`` minus ``TELEMETRY_RESULT_FIELDS``."""

    payload = scrub_telemetry(result.to_dict())
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _failed_rounds(result: ExperimentResult, rounds: int) -> int:
    """Rounds that did not complete, plus evaluations with a non-finite loss."""

    missing = max(0, rounds - result.rounds_completed)
    broken = sum(
        1
        for record in result.history
        if not (math.isfinite(record.test_loss) and math.isfinite(record.train_loss))
    )
    return min(rounds, missing + broken)


def _registry_counts(registry: MetricsRegistry | None) -> dict[str, float]:
    if registry is None:
        return {}
    counts = {"dropped": 0.0, "suppressed": 0.0, "delivered": 0.0}
    for key, instrument in registry.items():
        for name in counts:
            if key.startswith(f"engine_messages_{name}"):
                counts[name] += instrument.value
    return counts


class RoundRecorder:
    """Cuts one run into training and evaluation wall intervals.

    Boundaries come from the public ``Simulator.on_round_end`` hook and
    evaluation ends from ``on_evaluate``.  The interval from the previous hook
    to an ``on_evaluate`` call is an evaluation; every other interval is
    training.  Under the synchronous barrier a training interval is a round;
    under the asynchronous mode the hook fires once per *node* round, so a
    round is ``per_round`` consecutive intervals (their order is deterministic)
    and the intervals are kept apart: the finer the operation, the likelier one
    of the repeats ran it undisturbed.
    """

    def __init__(self, per_round: int, tracer: Tracer | None = None) -> None:
        self.per_round = per_round
        self.tracer = tracer
        self.steps: list[float] = []
        self.evals: list[float] = []
        self._last = 0.0

    def start(self) -> None:
        self._last = clock()

    def round_end(self, round_index: int, node_id: int | None, now: float) -> None:
        self.steps.append(clock() - self._last)
        if self.tracer is not None and len(self.steps) % self.per_round == 0:
            self.tracer.next_round()
        self._last = clock()

    def evaluated(self, record: Any) -> None:
        self.evals.append(clock() - self._last)
        self._last = clock()

    def attach(self, simulator: Simulator) -> None:
        simulator.on_round_end(self.round_end)
        simulator.on_evaluate(self.evaluated)


class SimulatorWorkload:
    """One ``Simulator`` run: the `run` subcommand's path."""

    #: The parentless span of a traced run that holds the measured work.
    root_span = "simulation.loop"

    def __init__(
        self,
        name: str,
        why: str,
        rounds: int,
        build: Callable[[int, int, int | None], tuple[LearningTask, SchemeFactory, ExperimentConfig]],
    ) -> None:
        self.name = name
        self.why = why
        self.rounds = rounds
        #: Operations one repeat attempts: its rounds.
        self.operations = rounds
        self._build = build

    def execute(
        self,
        seed: int,
        scratch: Path,
        tracer: Tracer | None = None,
        rounds: int | None = None,
        num_nodes: int | None = None,
    ) -> Repeat:
        """Build the deployment from ``seed`` and run it to completion.

        ``rounds``/``num_nodes`` shrink the workload for the harness tests;
        the benchmark itself always runs the frozen size.
        """

        registry = MetricsRegistry() if tracer is not None else None
        with _span(tracer, "setup"):
            started = clock()
            task, factory, config = self._build(seed, rounds or self.rounds, num_nodes)
            simulator = Simulator(
                task, factory, config, scheme_name="jwins", metrics=registry
            )
            setup_s = clock() - started
        recorder = RoundRecorder(
            config.num_nodes if config.execution == "async" else 1, tracer
        )
        recorder.attach(simulator)
        recorder.start()
        started = clock()
        result = simulator.run()
        run_s = clock() - started
        return Repeat(
            setup_s=setup_s,
            run_s=run_s,
            ops={"round": recorder.steps, "eval": recorder.evals},
            steps_per_round=recorder.per_round,
            digest=result_digest(result),
            node_rounds=result.num_nodes * result.rounds_completed,
            total_bytes=float(result.total_bytes),
            final_accuracy=float(result.final_accuracy),
            sim_time_s=float(result.simulated_time_seconds),
            attempted=config.rounds,
            failed=_failed_rounds(result, config.rounds),
            counts=_registry_counts(registry),
        )


class _CellTimer(SweepObserver):
    """Per-cell wall time under serial execution: ``on_start`` -> ``on_result``.

    In a traced sweep the span "round" id counts operations: one per cell, then
    one per fork.
    """

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.cells: list[float] = []
        self._started = 0.0

    def on_start(self, spec: Any) -> None:
        self._started = clock()

    def on_result(self, spec: Any, result: ExperimentResult) -> None:
        self.cells.append(clock() - self._started)
        if self.tracer is not None:
            self.tracer.next_round()


class _ForkHeartbeat:
    """Round boundaries of a forked run, through the public ``heartbeat`` hook.

    ``run_sweep`` and ``run_fork`` expose no ``on_round_end``; the duck-typed
    heartbeat (``on_round``/``on_checkpoint``) is the one per-round signal a
    spec-driven run offers, and it fires *before* the round's evaluation.  So
    an interval between two ``on_round`` calls is a plain round unless the
    earlier round evaluated, and the interval from the last ``on_round`` to the
    run's return is the final evaluation.
    """

    def __init__(self, eval_every: int, last_round: int) -> None:
        self.eval_every = eval_every
        self.last_round = last_round
        self.rounds: list[float] = []
        self.evals: list[float] = []
        self._previous: tuple[int, float] | None = None

    def on_round(self, rounds_completed: int) -> None:
        stamp = clock()
        if self._previous is not None:
            previous_round, previous_stamp = self._previous
            if previous_round % self.eval_every != 0:
                self.rounds.append(stamp - previous_stamp)
        self._previous = (rounds_completed, clock())

    def on_checkpoint(self, rounds_completed: int) -> None:
        """Forks run without a checkpoint sink; kept for the heartbeat protocol."""

    def finish(self) -> None:
        stamp = clock()
        if self._previous is not None and self._previous[0] == self.last_round:
            self.evals.append(stamp - self._previous[1])


class SweepWorkload:
    """A checkpointing sweep, forks of its snapshots, and a resumed re-run."""

    #: {workload} x {scheme}: two model families, JWINS plus three baselines
    #: that bypass the wavelet layer entirely.
    WORKLOADS = ("movielens", "celeba")
    SCHEMES = ("jwins", "full-sharing", "choco", "topk")
    #: Operations one repeat attempts: every cell, then a fork of every cell.
    operations = 2 * len(WORKLOADS) * len(SCHEMES)
    #: The parentless span of a traced run that holds the measured work.
    root_span = "orchestration.sweep"

    def __init__(self, name: str, why: str, rounds: int) -> None:
        self.name = name
        self.why = why
        self.rounds = rounds

    def sweep(self, seed: int, rounds: int) -> Sweep:
        return Sweep(
            name=self.name,
            workloads=self.WORKLOADS,
            schemes=self.SCHEMES,
            axes={"seed": (CONFIG_SEED,)},
            base_overrides={
                "num_nodes": 8,
                "degree": 4,
                "rounds": rounds,
                "eval_every": max(1, rounds // 2),
                # celeba's default 160-sample evaluation is 60% of a short cell
                # (im2col copies); this workload is about what surrounds the run.
                "eval_test_samples": 48,
            },
            task_seed=seed,
        )

    def _fresh(self, scratch: Path, seed: int, tag: str) -> Path:
        directory = Path(scratch) / f"{self.name}-{seed}-{tag}"
        if directory.exists():
            shutil.rmtree(directory)
        return directory

    def pool_seconds(self, seed: int, scratch: Path, rounds: int | None = None) -> float:
        """Wall seconds of segment (a) on a 2-worker pool (never gated).

        The extra pass behind ``orchestration.pool_speedup``; on a 2-core host
        it mostly shows what the pool costs.
        """

        rounds = rounds or self.rounds
        directory = self._fresh(scratch, seed, "pool")
        try:
            started = clock()
            run_sweep(
                self.sweep(seed, rounds),
                ResultStore(directory / "store.jsonl"),
                workers=2,
                checkpoint_dir=str(directory / "checkpoints"),
                checkpoint_every=max(1, rounds // 2),
            )
            return clock() - started
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def execute(
        self,
        seed: int,
        scratch: Path,
        tracer: Tracer | None = None,
        rounds: int | None = None,
        num_nodes: int | None = None,
    ) -> Repeat:
        """Run the three segments on a fresh directory under ``scratch``."""

        rounds = rounds or self.rounds
        cadence = max(1, rounds // 2)
        fork_rounds = rounds + cadence
        directory = self._fresh(scratch, seed, "serial")
        store_path = directory / "store.jsonl"
        checkpoints = directory / "checkpoints"
        registry = MetricsRegistry() if tracer is not None else None
        try:
            with _span(tracer, "setup"):
                started = clock()
                sweep = self.sweep(seed, rounds)
                specs = sweep.expand()
                for spec in specs:
                    spec.build()
                store = ResultStore(store_path)
                setup_s = clock() - started

            started = clock()
            with _span(tracer, "orchestration.sweep"):
                # (a) every cell, serially, snapshotting at the cadence.
                timer = _CellTimer(tracer)
                outcome = run_sweep(
                    sweep,
                    store,
                    workers=1,
                    observer=timer,
                    checkpoint_dir=str(checkpoints),
                    checkpoint_every=cadence,
                    metrics=registry,
                )
                sweep_s = clock() - started
                results = [outcome.result_for(spec) for spec in specs]
                failed_cells = sum(
                    1 for result in results if _failed_rounds(result, rounds) > 0
                )

                # (b) each cell's latest snapshot: load + verify, restore, run on.
                manager = CheckpointManager(checkpoints)
                fork_times: list[float] = []
                fork_results: list[ExperimentResult] = []
                fork_rounds_s: list[float] = []
                fork_evals_s: list[float] = []
                for spec in specs:
                    heartbeat = _ForkHeartbeat(cadence, fork_rounds)
                    fork_started = clock()
                    snapshot = manager.load(spec.content_hash())
                    _, forked = run_fork(
                        snapshot,
                        {"rounds": fork_rounds},
                        metrics=registry,
                        heartbeat=heartbeat,
                    )
                    heartbeat.finish()
                    fork_times.append(clock() - fork_started)
                    if tracer is not None:
                        tracer.next_round()
                    fork_results.append(forked)
                    fork_rounds_s.extend(heartbeat.rounds)
                    fork_evals_s.extend(heartbeat.evals)
                failed_forks = sum(
                    1 for result in fork_results if _failed_rounds(result, fork_rounds) > 0
                )

                # (c) a second invocation against the same store must skip everything.
                with _span(tracer, "orchestration.reread"):
                    reopened = ResultStore(store_path)
                    again = run_sweep(sweep, reopened, workers=1)
            run_s = clock() - started

            store_ok = len(reopened) == len(specs) and not again.executed
            digest = hashlib.sha256(store_path.read_bytes())
            for result in fork_results:
                digest.update(result_digest(result).encode("ascii"))
            everything = results + fork_results
            counts = _registry_counts(registry)
            counts["sweep_s"] = sweep_s
            return Repeat(
                setup_s=setup_s,
                run_s=run_s,
                ops={
                    "cell": timer.cells,
                    "fork": fork_times,
                    "round": fork_rounds_s,
                    "eval": fork_evals_s,
                },
                digest=digest.hexdigest(),
                node_rounds=sum(r.num_nodes * r.rounds_completed for r in everything),
                total_bytes=float(sum(r.total_bytes for r in everything)),
                final_accuracy=float(np.mean([r.final_accuracy for r in results])),
                sim_time_s=float(sum(r.simulated_time_seconds for r in everything)),
                attempted=self.operations,
                # A broken store invalidates every cell it should have held.
                failed=failed_cells + failed_forks if store_ok else self.operations,
                counts=counts,
            )
        finally:
            shutil.rmtree(directory, ignore_errors=True)


# -- the tasks the run workloads train ---------------------------------------------------
def _mlp_task(
    seed: int, image_size: int, hidden: int, classes: int, train: int, test: int
) -> LearningTask:
    """Class-prototype images for an ``MLPClassifier(image_size**2, hidden, classes)``."""

    generator = np.random.default_rng(seed)
    inputs, labels = make_class_images(
        generator, train + test, classes, image_size=image_size, channels=1, noise=0.5
    )
    width = image_size * image_size
    return LearningTask(
        name=f"mlp{width}x{hidden}",
        train=Dataset(inputs[:train], labels[:train]),
        test=Dataset(inputs[train:], labels[train:]),
        model_factory=lambda rng: MLPClassifier(width, hidden, classes, rng),
        loss_factory=CrossEntropyLoss,
        accuracy_fn=classification_accuracy,
    )


def _jwins() -> SchemeFactory:
    return jwins_factory(JwinsConfig.paper_default())


def _conv8_sync(seed: int, rounds: int, num_nodes: int | None):
    workload = get_workload("cifar10")
    nodes = num_nodes or 8
    config = replace(
        workload.config,
        num_nodes=nodes,
        degree=min(4, nodes - 1),
        rounds=rounds,
        eval_every=max(1, rounds // 4),
        eval_test_samples=128,
        seed=CONFIG_SEED,
    )
    return workload.make_task(seed=seed), _jwins(), config


def _wide4_sync(seed: int, rounds: int, num_nodes: int | None):
    nodes = num_nodes or 4
    config = ExperimentConfig(
        num_nodes=nodes,
        degree=min(3, nodes - 1),
        rounds=rounds,
        eval_every=max(1, rounds // 2),
        eval_test_samples=128,
        seed=CONFIG_SEED,
    )
    return _mlp_task(seed, 16, 1024, 10, train=512, test=128), _jwins(), config


def _mlp1k_arena(seed: int, rounds: int, num_nodes: int | None):
    nodes = num_nodes or 1000
    # The fig10 scaling cell (benchmarks/test_fig10_scalability.py), longer.
    config = ExperimentConfig(
        num_nodes=nodes,
        degree=6,
        rounds=rounds,
        local_steps=1,
        batch_size=8,
        learning_rate=0.05,
        eval_every=max(1, rounds // 2),
        eval_nodes=8,
        eval_test_samples=64,
        seed=CONFIG_SEED,
        partition="iid",
        engine="arena",
    )
    task = _mlp_task(seed, 4, 16, 4, train=max(2 * nodes, 2000), test=64)
    return task, _jwins(), config


def _gossip64_async(seed: int, rounds: int, num_nodes: int | None):
    nodes = num_nodes or 64
    # churn-partition with its static topology policy replaced by the paper's
    # Fig. 7 setting: a fresh random-regular graph every round.
    scenario = replace(
        get_scenario("churn-partition", nodes, rounds),
        topology=GeneratorPolicy(generator="random-regular", rewire_every=1),
    )
    config = ExperimentConfig(
        num_nodes=nodes,
        degree=4,
        rounds=rounds,
        eval_every=max(1, rounds // 4),
        eval_test_samples=128,
        seed=CONFIG_SEED,
        execution="async",
        compute_speed_range=(1.0, 3.0),
        bandwidth_scale_range=(0.5, 1.0),
        link_latency_jitter_seconds=0.010,
        message_drop_probability=0.05,
        scenario=scenario,
    )
    return _mlp_task(seed, 8, 32, 10, train=2048, test=256), _jwins(), config


WORKLOADS: dict[str, SimulatorWorkload | SweepWorkload] = {
    workload.name: workload
    for workload in (
        # The paper's main setting at simulator scale: a conv net on 8 nodes.
        # nn does most of the work (local training and evaluation), DWT and
        # codecs a quarter.  Where nn kernels must show and codec work barely.
        SimulatorWorkload(
            "conv8_sync",
            "paper's main setting (conv net, 8 nodes, sync): nn training and evaluation "
            "dominate, codecs are a quarter",
            rounds=24,
            build=_conv8_sync,
        ),
        # The paper's regime is large models.  Mirror image of conv8_sync:
        # a 273k-parameter MLP on 4 nodes makes index/float codecs and the DWT
        # nearly the whole round, and nn a few percent.
        SimulatorWorkload(
            "wide4_sync",
            "large model (d=273k, 4 nodes): Elias-gamma, float codec and DWT dominate, "
            "nn is a few percent; mirror of conv8_sync",
            rounds=6,
            build=_wide4_sync,
        ),
        # The fig10 cell.  Per-node interpreter overhead, not kernels: most of
        # the run is the engine's own loop and ~100 us calls, so call *counts*
        # matter.  Target of ROADMAP "batch what the arena still does per node".
        SimulatorWorkload(
            "mlp1k_arena",
            "fig10 cell (1000 nodes, tiny MLP, arena engine): per-node interpreter "
            "overhead and call counts, not kernels",
            rounds=4,
            build=_mlp1k_arena,
        ),
        # The same simulation/core/wavelets layers used differently: an event
        # loop instead of a barrier, small un-batchable per-event calls, stale
        # inboxes, drops, churn, a partition and per-round rewiring — the only
        # workload that gives scenarios and topology real work.  A sync-side
        # gain that costs the async path shows here.
        SimulatorWorkload(
            "gossip64_async",
            "async gossip (64 nodes, stragglers, jitter, drops, churn-partition, per-round "
            "rewiring): event loop, scenarios and topology layers",
            rounds=16,
            build=_gossip64_async,
        ),
        # orchestration + checkpoint + store, writes beside reads.  Its
        # baseline schemes bypass wavelets, so a DWT-only change predicts no
        # change here.  Serial, so per-cell times are clean.
        SweepWorkload(
            "sweep8_ckpt",
            "checkpointing sweep (2 tasks x 4 schemes), forks from snapshots, resumed re-run: "
            "orchestration, checkpoint and store; baselines bypass wavelets",
            rounds=6,
        ),
    )
}
