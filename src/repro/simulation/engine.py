"""The :class:`Simulator` engine and its pluggable execution modes.

The engine separates three concerns that used to live in one monolithic loop:

* the :class:`Simulator` owns the *deployment* — nodes, topology, mixing
  weights, byte metering, evaluation and the result being built;
* an :class:`ExecutionMode` strategy owns the *schedule* — how rounds unfold
  in simulated time.  :class:`SynchronousMode` reproduces the paper's
  lock-step rounds bit-for-bit as one six-stage loop of plain stage functions:
  only ``train`` depends on where node state lives (step-major form in
  :mod:`repro.simulation.arena`), ``encode``/``aggregate`` hand all active
  nodes to their scheme class, which alone decides how many rows share a
  kernel call; :class:`AsynchronousMode` runs event-driven gossip where
  heterogeneous nodes progress at their own pace;
* observers attach to the engine's hook points (``on_round_end``,
  ``on_message``, ``on_evaluate``) so metrics collection, early-stop logic or
  live dashboards never require editing the loop itself.

Typical use::

    simulator = Simulator(task, jwins_factory(), config)
    simulator.on_round_end(lambda round_index, node_id, now: print(round_index, now))
    result = simulator.run()

The :func:`~repro.simulation.runner.run_experiment` facade keeps the one-call
API every benchmark and example uses.
"""

from __future__ import annotations

import hashlib
import json
import platform
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.checkpoint import preemption
from repro.core.interface import Message, RoundContext, SchemeFactory, SharingScheme
from repro.datasets.base import LearningTask
from repro.datasets.partition import partition_dataset
from repro.exceptions import CheckpointError, ExperimentPaused, SimulationError
from repro.scenarios.schedule import BYZANTINE_MODES, ScenarioSchedule, ScenarioState
from repro.simulation.events import (
    AGGREGATE,
    DELIVER_MESSAGE,
    FINISH_TRAIN,
    NODE_RESUME,
    START_ROUND,
    EventLoop,
)
from repro.observability.memory import peak_rss_bytes
from repro.observability.metrics import NULL_METRICS, MetricsRegistry
from repro.observability.trace import TraceEmitter
from repro.simulation.experiment import ExperimentConfig
from repro.simulation.metrics import ExperimentResult, RoundRecord
from repro.simulation.network import ByteMeter
from repro.simulation.node import SimulationNode
from repro.topology.graphs import Topology
from repro.topology.weights import metropolis_hastings_weights
from repro.utils.profiling import PhaseTimer, Profiler
from repro.utils.rng import SeedSequenceFactory

if TYPE_CHECKING:  # pragma: no cover - lazy runtime import avoids a cycle
    from repro.checkpoint.snapshot import SimulationSnapshot

__all__ = [
    "AsynchronousMode",
    "ExecutionMode",
    "SimulationObserver",
    "Simulator",
    "SynchronousMode",
    "build_nodes",
]

class _NullTimer:
    """Zero-cost stand-in for :class:`~repro.utils.profiling.PhaseTimer`."""

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_TIMER = _NullTimer()

MessageCallback = Callable[[Message, int, float], None]
RoundEndCallback = Callable[[int, "int | None", float], None]
EvaluateCallback = Callable[[RoundRecord], None]


def build_nodes(
    task: LearningTask,
    scheme_factory: SchemeFactory,
    config: ExperimentConfig,
) -> list[SimulationNode]:
    """Create the simulation nodes: partitioned data, common initial model, schemes."""

    seeds = SeedSequenceFactory(config.seed)
    partition_rng = seeds.rng("partition")
    partitions = partition_dataset(
        task.train,
        config.num_nodes,
        partition_rng,
        scheme=config.partition,
        shards_per_node=config.shards_per_node,
    )

    # All nodes start from the same initial model (as in D-PSGD): every model
    # is drawn from the same "model-init" stream, the first one is the
    # reference and its flat parameters are copied into every node's model.
    from repro.nn.module import get_flat_parameters  # local import avoids a cycle

    models = [task.make_model(seeds.rng("model-init")) for _ in range(config.num_nodes)]
    initial_parameters = get_flat_parameters(models[0])
    model_size = initial_parameters.size

    nodes: list[SimulationNode] = []
    for node_id, model in enumerate(models):
        scheme = scheme_factory(node_id, model_size, seeds.node_seed(node_id, "scheme"))
        node = SimulationNode(
            node_id=node_id,
            dataset=partitions[node_id],
            model=model,
            loss=task.make_loss(),
            scheme=scheme,
            learning_rate=config.learning_rate,
            batch_size=config.batch_size,
            local_steps=config.local_steps,
            rng=seeds.node_rng(node_id, "batches"),
            momentum=config.momentum,
        )
        node.set_parameters(initial_parameters)
        nodes.append(node)
    return nodes


class SimulationObserver:
    """Base class for engine observers; override any subset of the hooks.

    Prefer this over raw callbacks when one object wants several hooks, e.g.
    a dashboard collecting both deliveries and evaluation points::

        class Dashboard(SimulationObserver):
            def on_message(self, message, receiver, now):
                ...
            def on_evaluate(self, record):
                ...

        simulator.add_observer(Dashboard())
    """

    def on_round_end(self, round_index: int, node_id: int | None, now: float) -> None:
        """A round finished.  ``node_id`` is ``None`` under the synchronous
        barrier (the round ends globally) and the finishing node's id under
        the asynchronous mode."""

    def on_message(self, message: Message, receiver: int, now: float) -> None:
        """``message`` was delivered to ``receiver`` at simulated time ``now``."""

    def on_evaluate(self, record: RoundRecord) -> None:
        """An evaluation point was recorded."""


class ExecutionMode(ABC):
    """Strategy deciding how rounds unfold in simulated time."""

    #: Short name stored on :attr:`ExperimentResult.execution`.
    name = "abstract"

    @abstractmethod
    def run(self, simulator: "Simulator") -> None:
        """Drive ``simulator`` to completion, filling its result in place."""


class Simulator:
    """Owns one decentralized-learning deployment and drives it to completion.

    Parameters
    ----------
    task:
        The learning task (dataset + model + loss factories).
    scheme_factory:
        Factory building one :class:`~repro.core.interface.SharingScheme` per node.
    config:
        The experiment configuration; ``config.execution`` selects the default
        execution mode unless ``mode`` overrides it.
    scheme_name:
        Optional display name stored on the result.
    mode:
        Explicit :class:`ExecutionMode` instance; defaults to
        :class:`SynchronousMode` or :class:`AsynchronousMode` per the config.
    profiler:
        Optional :class:`~repro.utils.profiling.Profiler` measuring the
        wall-clock cost of the engine phases (``train``/``encode``/
        ``aggregate``/``evaluate``); its totals and per-round rows are copied
        onto the result after the run.
    checkpoint_every:
        Capture a :class:`~repro.checkpoint.snapshot.SimulationSnapshot`
        every this many completed (global) rounds and hand it to
        ``checkpoint_sink``.  ``0`` (the default) disables cadence
        checkpointing; snapshots are then only taken when a stop is requested
        (:meth:`request_checkpoint_stop`).  With checkpointing disabled the
        engine's behaviour is bit-identical to a build without the feature.
    checkpoint_sink:
        Callable receiving each captured snapshot (e.g.
        ``CheckpointManager.sink_for(key)``).
    resume_from:
        A snapshot to continue from: the simulator is built normally, then
        the snapshot's state is overlaid so the run picks up exactly where it
        paused — byte-identical to never having stopped.
    spec:
        Optional ``ExperimentSpec.to_dict()`` payload embedded in every
        captured snapshot, tying it to its orchestration cell.
    metrics:
        Optional :class:`~repro.observability.metrics.MetricsRegistry`
        collecting run telemetry (bytes and messages per scheme, drops and
        suppressions, events processed, round latencies).  Defaults to the
        shared no-op registry, so instrumented code paths never branch.
    trace:
        Optional :class:`~repro.observability.trace.TraceEmitter` receiving
        one structured record per round, delivered message, evaluation and
        checkpoint, bracketed by a run manifest and a ``run_end`` summary.
    """

    def __init__(
        self,
        task: LearningTask,
        scheme_factory: SchemeFactory,
        config: ExperimentConfig,
        scheme_name: str | None = None,
        mode: ExecutionMode | None = None,
        profiler: Profiler | None = None,
        checkpoint_every: int = 0,
        checkpoint_sink: Callable[["SimulationSnapshot"], None] | None = None,
        resume_from: "SimulationSnapshot | None" = None,
        spec: dict[str, Any] | None = None,
        metrics: MetricsRegistry | None = None,
        trace: TraceEmitter | None = None,
    ) -> None:
        self.task = task
        self.config = config
        self.seeds = SeedSequenceFactory(config.seed)
        if config.engine == "arena":
            # Lazy import: the arena module imports this one.
            from repro.simulation.arena import build_arena_nodes

            self.nodes, self.arenas = build_arena_nodes(task, scheme_factory, config)
        else:
            self.nodes = build_nodes(task, scheme_factory, config)
            #: Contiguous ``(N, d)`` state arenas backing the nodes under the
            #: arena engine; ``None`` under the per-node reference engine.
            self.arenas = None
        self.model_size = int(self.nodes[0].get_parameters().size)

        self.scenario: ScenarioSchedule = config.resolved_scenario()
        self._topology_rng = self.seeds.rng("topology")
        self.topology: Topology = self.scenario.topology.initial(
            config.num_nodes, config.degree, self._topology_rng
        )
        self.weights = metropolis_hastings_weights(self.topology)

        resolved_scheme = scheme_name or self.nodes[0].scheme.name
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.trace = trace
        self.meter = ByteMeter(
            config.num_nodes, metrics=self.metrics, scheme=resolved_scheme
        )
        self.profiler = profiler
        self._eval_rng = self.seeds.rng("evaluation")
        self._drop_rng = self.seeds.rng("message-drops")

        # Instruments are resolved once; recording through them is a no-op
        # attribute call when telemetry is off, so the hot loops never branch.
        self._m_events = self.metrics.counter("engine_events_processed")
        self._m_rounds = self.metrics.gauge("engine_rounds_completed")
        self._m_delivered = self.metrics.counter(
            "engine_messages_delivered", scheme=resolved_scheme
        )
        self._m_bytes_received = self.metrics.counter(
            "net_bytes_received", scheme=resolved_scheme
        )
        self._m_dropped = self.metrics.counter("engine_messages_dropped")
        self._m_suppressed = self.metrics.counter("engine_messages_suppressed")
        self._m_byzantine = {
            mode: self.metrics.counter("engine_byzantine_sends", mode=mode)
            for mode in BYZANTINE_MODES
        }
        # Per-node frozen models held by stale-replay attackers; part of the
        # checkpointed state (see repro.checkpoint.snapshot).
        self._byzantine_stale: dict[int, np.ndarray] = {}
        self._m_evaluations = self.metrics.counter("engine_evaluations")
        self._m_round_latency = self.metrics.histogram("engine_round_latency_seconds")
        self._latency_marks: dict[int, float] = {}

        if mode is None:
            # Both run on either node-state engine: gossip steps nodes through
            # their arena views, lock-step picks its train stage off ``arenas``.
            mode = SynchronousMode() if config.execution == "sync" else AsynchronousMode()
        self.mode = mode

        self.result = ExperimentResult(
            scheme=resolved_scheme,
            task=task.name,
            num_nodes=config.num_nodes,
            rounds_completed=0,
            target_accuracy=config.target_accuracy,
            execution=mode.name,
        )

        self._round_end_callbacks: list[RoundEndCallback] = []
        self._message_callbacks: list[MessageCallback] = []
        self._evaluate_callbacks: list[EvaluateCallback] = []
        self._ran = False

        if checkpoint_every < 0:
            raise CheckpointError("checkpoint_every must be non-negative")
        self.checkpoint_every = int(checkpoint_every)
        self.checkpoint_sink = checkpoint_sink
        self.spec_payload = dict(spec) if spec is not None else None
        self._stop_requested = False
        self.resume_state: "SimulationSnapshot | None" = None
        if resume_from is not None:
            from repro.checkpoint.snapshot import restore_simulator

            restore_simulator(self, resume_from)

    # -- observer hooks ------------------------------------------------------------
    def on_round_end(self, callback: RoundEndCallback) -> "Simulator":
        """Register ``callback(round_index, node_id, now)``; returns ``self``."""

        self._round_end_callbacks.append(callback)
        return self

    def on_message(self, callback: MessageCallback) -> "Simulator":
        """Register ``callback(message, receiver, now)``; returns ``self``."""

        self._message_callbacks.append(callback)
        return self

    def on_evaluate(self, callback: EvaluateCallback) -> "Simulator":
        """Register ``callback(record)``; returns ``self``."""

        self._evaluate_callbacks.append(callback)
        return self

    def add_observer(self, observer: SimulationObserver) -> "Simulator":
        """Attach all three hooks of a :class:`SimulationObserver` at once."""

        return (
            self.on_round_end(observer.on_round_end)
            .on_message(observer.on_message)
            .on_evaluate(observer.on_evaluate)
        )

    def emit_round_end(self, round_index: int, node_id: int | None, now: float) -> None:
        self._m_rounds.set(float(self.result.rounds_completed))
        if self.metrics.enabled:
            # Per-node round latency in simulated seconds (the barrier's under
            # sync, where round ends are global and keyed as node -1).
            key = -1 if node_id is None else node_id
            self._m_round_latency.observe(now - self._latency_marks.get(key, 0.0))
            self._latency_marks[key] = now
        if self.trace is not None:
            self.trace.emit("round", {"round": round_index, "node": node_id, "now": now})
        for callback in self._round_end_callbacks:
            callback(round_index, node_id, now)

    def mark_profile_round(self, round_index: int) -> None:
        """Cut the profiler's per-round row at a round boundary (no-op when off).

        The execution modes call this *after* the round's evaluation so the
        ``evaluate`` time is attributed to the round that triggered it.
        """

        if self.profiler is not None:
            self.profiler.mark_round(round_index)

    def emit_message(self, message: Message, receiver: int, now: float) -> None:
        self._m_delivered.inc()
        self._m_bytes_received.inc(message.size.total_bytes)
        if self.trace is not None:
            self.trace.emit(
                "message",
                {
                    "sender": message.sender,
                    "receiver": receiver,
                    "bytes": float(message.size.total_bytes),
                    "now": now,
                },
            )
        for callback in self._message_callbacks:
            callback(message, receiver, now)

    # -- checkpointing -------------------------------------------------------------
    def request_checkpoint_stop(self) -> None:
        """Ask the run to snapshot and pause at its next safe boundary.

        Safe to call from a signal handler or another thread (it only sets a
        flag).  The engine finishes the round it is in, captures a snapshot
        and raises :class:`~repro.exceptions.ExperimentPaused` carrying it.
        """

        self._stop_requested = True

    def checkpoint_stop_pending(self) -> bool:
        """Whether a stop request (direct or process-wide preemption) is live."""

        return self._stop_requested or preemption.should_stop(
            self.result.rounds_completed
        )

    def checkpoint_point(self, build_mode_state: Callable[[], dict[str, Any]]) -> None:
        """Execution modes call this at snapshot-safe round boundaries.

        ``build_mode_state`` lazily produces the mode's private state (already
        JSON-encoded), so quiet rounds cost one flag check and nothing more.
        Captures a snapshot when the cadence is due or a stop is pending; a
        pending stop then raises :class:`~repro.exceptions.ExperimentPaused`.
        """

        stopping = self.checkpoint_stop_pending()
        due = (
            self.checkpoint_sink is not None
            and self.checkpoint_every > 0
            and self.result.rounds_completed > 0
            and self.result.rounds_completed % self.checkpoint_every == 0
        )
        if not (stopping or due):
            return
        from repro.checkpoint.snapshot import capture_snapshot

        snapshot = capture_snapshot(self, build_mode_state())
        self.metrics.counter("engine_snapshots_captured").inc()
        if self.trace is not None:
            self.trace.emit(
                "checkpoint",
                {
                    "rounds_completed": self.result.rounds_completed,
                    "reason": "stop" if stopping else "cadence",
                },
            )
        if self.checkpoint_sink is not None:
            self.checkpoint_sink(snapshot)
        if stopping:
            raise ExperimentPaused(snapshot)

    def consume_resume_state(self, kind: str) -> "SimulationSnapshot | None":
        """Hand the pending resume snapshot to the execution mode (once).

        ``kind`` is the mode's name; a mismatch means the snapshot was taken
        under a different schedule and cannot resume here.
        """

        if self.resume_state is None:
            return None
        snapshot = self.resume_state
        if snapshot.mode_state.get("kind") != kind:
            raise CheckpointError(
                f"snapshot mode state is {snapshot.mode_state.get('kind')!r}, "
                f"the running execution mode is {kind!r}"
            )
        self.resume_state = None
        return snapshot

    # -- deployment helpers --------------------------------------------------------
    def profile(self, name: str) -> "PhaseTimer | _NullTimer":
        """Context manager timing phase ``name``; a no-op without a profiler."""

        if self.profiler is None:
            return _NULL_TIMER
        return self.profiler.phase(name)

    def scenario_state(self, round_index: int) -> ScenarioState:
        """The environment state (activity, partitions, slowdowns) at a round."""

        return self.scenario.state_at(round_index, self.config.num_nodes)

    def apply_topology_policy(self, round_index: int) -> bool:
        """Ask the scenario's topology policy for round ``round_index``.

        Returns ``True`` when the graph was rewired.  The policy draws from
        the engine's dedicated topology RNG stream, so rewiring decisions are
        deterministic per seed and — under the static default — consume no
        randomness at all.
        """

        rewired = self.scenario.topology.rewire(
            round_index, self.config.num_nodes, self.config.degree, self._topology_rng
        )
        if rewired is None:
            return False
        self.topology = rewired
        self.weights = metropolis_hastings_weights(rewired)
        return True

    def make_context(
        self,
        node: SimulationNode,
        round_index: int,
        params_start: np.ndarray,
        params_trained: np.ndarray,
        now: float,
    ) -> RoundContext:
        """Build the :class:`RoundContext` a scheme sees for one round."""

        neighbor_weights = {
            neighbor: float(self.weights[node.node_id, neighbor])
            for neighbor in self.topology.neighbors(node.node_id)
        }
        return RoundContext(
            round_index=round_index,
            params_start=params_start,
            params_trained=params_trained,
            self_weight=float(self.weights[node.node_id, node.node_id]),
            neighbor_weights=neighbor_weights,
            rng=self.seeds.node_rng(node.node_id, "round", round_index),
            now=now,
            node_id=node.node_id,
        )

    def apply_byzantine(
        self,
        node_id: int,
        round_index: int,
        state: ScenarioState,
        params_start: np.ndarray,
        params_trained: np.ndarray,
    ) -> np.ndarray:
        """The model ``node_id`` actually presents this round (send-time attack).

        Honest nodes (no open :class:`~repro.scenarios.schedule.ByzantineWindow`
        covering them) pass their trained parameters through untouched.  A
        Byzantine node's parameters are corrupted *before* the compression
        scheme sees them, so every scheme faces the same attack, and the
        corrupted model also feeds the node's own aggregation — the adversary
        is Byzantine throughout, not merely a noisy link.  All randomness
        comes from the per-node seeded ``"byzantine"`` RNG stream, keeping
        hostile runs exactly replayable.
        """

        mode = state.byzantine_mode(node_id)
        if mode is None:
            # Leaving a stale-replay window releases the frozen model.
            self._byzantine_stale.pop(node_id, None)
            return params_trained
        self._m_byzantine[mode].inc()
        if mode == "sign-flip":
            # Mirror the local update about the round's starting point.
            return 2.0 * params_start - params_trained
        if mode == "random-gradient":
            rng = self.seeds.node_rng(node_id, "byzantine", round_index)
            update = params_trained - params_start
            scale = float(np.sqrt(np.mean(update * update)))
            if scale == 0.0:
                scale = 1.0
            return params_start + rng.standard_normal(update.shape) * scale
        # stale-replay: freeze the first in-window model and resend it.
        held = self._byzantine_stale.get(node_id)
        if held is None:
            held = params_trained.copy()
            self._byzantine_stale[node_id] = held
        return held.copy()

    def record_prepared_message(
        self, node: SimulationNode, context: RoundContext, message: Message
    ) -> Message:
        """Validate and meter a round message produced for ``node``.

        Every message passes through here — one ``prepare`` at a time from the
        event loop, a stage's worth from :func:`encode` — so the sender check
        and the byte metering are the same code wherever it was built.
        """

        if message.sender != node.node_id:
            raise SimulationError("a scheme produced a message with the wrong sender id")
        self.meter.record_send(
            node.node_id, message.size, copies=len(context.neighbor_weights)
        )
        return message

    def deliver_allowed(self) -> bool:
        """One Bernoulli draw of the lossy-network model: ``True`` = delivered.

        The sender's bytes are metered regardless (the data still left its
        uplink); a dropped delivery simply never reaches the receiver.
        """

        return self._drop_rng.random() >= self.config.message_drop_probability

    # -- evaluation ----------------------------------------------------------------
    def _evaluate_nodes(self) -> tuple[float, float]:
        """Average test loss and accuracy over (a sample of) the nodes."""

        config = self.config
        test = self.task.test
        sample_size = min(config.eval_test_samples, len(test))
        indices = self._eval_rng.choice(len(test), size=sample_size, replace=False)
        inputs, targets = test.batch(indices)

        if config.eval_nodes is None or config.eval_nodes >= len(self.nodes):
            evaluated = self.nodes
        else:
            chosen = self._eval_rng.choice(
                len(self.nodes), size=config.eval_nodes, replace=False
            )
            evaluated = [self.nodes[i] for i in chosen]

        losses, accuracies = [], []
        for node in evaluated:
            loss, accuracy = node.evaluate(inputs, targets, self.task.accuracy_fn)
            losses.append(loss)
            accuracies.append(accuracy)
        return float(np.mean(losses)), float(np.mean(accuracies))

    def record_evaluation(
        self, round_index: int, shared_fraction: float, now: float
    ) -> RoundRecord:
        """Evaluate the deployment and append a :class:`RoundRecord`."""

        with self.profile("evaluate"):
            test_loss, test_accuracy = self._evaluate_nodes()
        train_loss = float(np.mean([node.last_train_loss for node in self.nodes]))
        record = RoundRecord(
            round_index=round_index,
            test_accuracy=test_accuracy,
            test_loss=test_loss,
            train_loss=train_loss,
            cumulative_bytes_per_node=self.meter.average_bytes_per_node,
            cumulative_metadata_bytes_per_node=float(
                self.meter.metadata_bytes_per_node.mean()
            ),
            simulated_time_seconds=now,
            average_shared_fraction=shared_fraction,
        )
        self.result.history.append(record)
        self._m_evaluations.inc()
        if self.trace is not None:
            self.trace.emit(
                "evaluate",
                {
                    "round": record.round_index,
                    "accuracy": record.test_accuracy,
                    "loss": record.test_loss,
                    "bytes_per_node": record.cumulative_bytes_per_node,
                    "now": now,
                },
            )
        if (
            self.config.target_accuracy is not None
            and self.result.reached_target_at_round is None
            and test_accuracy >= self.config.target_accuracy
        ):
            self.result.reached_target_at_round = round_index
        for callback in self._evaluate_callbacks:
            callback(record)
        return record

    def should_stop_at_target(self) -> bool:
        """Whether the early-stop condition fired."""

        return (
            self.config.stop_at_target
            and self.config.target_accuracy is not None
            and self.result.reached_target_at_round is not None
        )

    def run_manifest(self) -> dict[str, Any]:
        """The identity header the trace's ``manifest`` record carries.

        Everything here is stable for a given machine and spec — the seed,
        sizes, execution mode, library versions and (when the run came from an
        orchestration cell) the spec content hash — so stripped traces stay
        byte-identical across reruns.
        """

        manifest: dict[str, Any] = {
            "scheme": self.result.scheme,
            "task": self.result.task,
            "num_nodes": int(self.config.num_nodes),
            "rounds": int(self.config.rounds),
            "seed": int(self.config.seed),
            "execution": self.mode.name,
            "versions": {
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
        }
        if self.spec_payload is not None:
            canonical = json.dumps(
                self.spec_payload, sort_keys=True, separators=(",", ":")
            )
            manifest["spec_hash"] = hashlib.sha256(canonical.encode()).hexdigest()
        return manifest

    # -- driving -------------------------------------------------------------------
    def run(self) -> ExperimentResult:
        """Run the experiment once and return the finished result.

        Raises :class:`~repro.exceptions.ExperimentPaused` (carrying the
        freshly captured snapshot) when a checkpoint-stop was requested; the
        run can later be continued bit-identically via ``resume_from``.
        """

        if self._ran:
            raise SimulationError(
                "a Simulator instance is single-shot; build a new one to re-run"
            )
        self._ran = True
        if self.trace is not None:
            self.trace.begin_run(self.run_manifest())
        if self.profiler is not None and self.profiler.memory is not None:
            self.profiler.memory.start()
        preemption.register(self)
        try:
            self.mode.run(self)
        finally:
            preemption.unregister(self)
            if self.profiler is not None:
                # In ``finally`` so a paused or failed run also stops the
                # memory tracker (tracemalloc must not outlive the run) and
                # keeps its totals.  Flush work recorded after the last round
                # boundary (e.g. the final evaluation) into a trailing row
                # before copying.
                self.profiler.flush(self.result.rounds_completed)
                self.result.phase_seconds = self.profiler.totals
                self.result.round_phase_seconds = self.profiler.round_rows
                memory: dict[str, Any] = {"peak_rss_bytes": peak_rss_bytes()}
                if self.profiler.memory is not None:
                    memory.update(self.profiler.memory.stop())
                self.result.memory = memory
        if self.scenario.has_events:
            # The trace is a pure function of the schedule, recorded for every
            # round the run actually completed (early stop truncates it).
            for round_index in range(self.result.rounds_completed):
                state = self.scenario_state(round_index)
                self.result.scenario_rounds.append(
                    {
                        "round": round_index,
                        "active_nodes": list(state.active),
                        "partition_ids": list(state.partition_ids),
                    }
                )
        self.result.total_bytes = self.meter.total_bytes
        self.result.total_metadata_bytes = self.meter.total_metadata_bytes
        self.result.total_values_bytes = self.meter.total_values_bytes
        if self.trace is not None:
            wall: dict[str, Any] = {"peak_rss_bytes": peak_rss_bytes()}
            if self.result.phase_seconds:
                wall["phase_seconds"] = dict(self.result.phase_seconds)
            self.trace.emit(
                "run_end",
                {
                    "rounds_completed": self.result.rounds_completed,
                    "total_bytes": float(self.result.total_bytes),
                    "simulated_time_seconds": float(
                        self.result.simulated_time_seconds
                    ),
                },
                wall=wall,
            )
            self.trace.flush()
        return self.result


# -- stage functions -------------------------------------------------------------------
# The stages of a lock-step round that touch node state, one profiler interval
# each; ``present`` and ``aggregate_node`` also serve the event loop.
def train_rows(
    simulator: "Simulator", active_nodes: list[SimulationNode]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Stage ``train`` on private models: a ``(params_start, params_trained)`` per node."""

    pairs = []
    for node in active_nodes:
        with simulator.profile("train"):
            pairs.append(node.local_training())
    return pairs


def present(
    simulator: "Simulator",
    node: SimulationNode,
    round_index: int,
    state: ScenarioState,
    params_start: np.ndarray,
    params_trained: np.ndarray,
    now: float,
) -> RoundContext:
    """Stage ``present``: the send-time attack, then the node's round context."""

    params_trained = simulator.apply_byzantine(
        node.node_id, round_index, state, params_start, params_trained
    )
    return simulator.make_context(node, round_index, params_start, params_trained, now=now)


def _scheme_class(nodes: list[SimulationNode]) -> type[SharingScheme]:
    """The class whose rows hooks run a stage: the nodes' own when they share one."""

    classes = {type(node.scheme) for node in nodes}
    return classes.pop() if len(classes) == 1 else SharingScheme


def encode(
    simulator: "Simulator", active_nodes: list[SimulationNode], contexts: list[RoundContext]
) -> dict[int, Message]:
    """Stage ``encode``: every node's metered round message, keyed by sender."""

    with simulator.profile("encode"):
        prepared = _scheme_class(active_nodes).prepare_rows(
            [node.scheme for node in active_nodes], contexts
        )
        return {
            node.node_id: simulator.record_prepared_message(node, context, message)
            for node, context, message in zip(active_nodes, contexts, prepared)
        }


def aggregate_node(
    simulator: "Simulator", node: SimulationNode, context: RoundContext, inbox: list[Message]
) -> None:
    """Mix ``inbox`` into ``node``'s model and close its scheme's round."""

    with simulator.profile("aggregate"):
        new_params = node.scheme.aggregate(context, inbox)
        node.scheme.finalize(context, new_params)
        node.set_parameters(new_params)


def aggregate(
    simulator: "Simulator",
    active_nodes: list[SimulationNode],
    contexts: list[RoundContext],
    inboxes: list[list[Message]],
) -> None:
    """Stage ``aggregate``: the schemes close the round, the models are rewritten.

    Each block of new models lands where the state lives: row by row in
    private models, one assignment in the arena (whose ``Parameter`` views
    stay bound to it).
    """

    with simulator.profile("aggregate"):
        blocks = _scheme_class(active_nodes).aggregate_rows(
            [node.scheme for node in active_nodes], contexts, inboxes
        )
        for rows, block in blocks:
            members = active_nodes[rows]
            if block.shape != (len(members), simulator.model_size):
                raise SimulationError(
                    f"aggregation produced a {block.shape} matrix for "
                    f"{len(members)} models of {simulator.model_size} parameters"
                )
            if simulator.arenas is None:
                for node, new_params in zip(members, block):
                    node.set_parameters(new_params)
            else:
                simulator.arenas.params[[node.node_id for node in members]] = block


class SynchronousMode(ExecutionMode):
    """The paper's lock-step schedule: train, exchange, aggregate, barrier.

    The only lock-step loop: ``train -> present -> encode -> deliver ->
    aggregate -> account``, every delivery of a round preceding any aggregation,
    through the stage functions above.  For a given seed either state layout
    produces the :class:`ExperimentResult` of the original monolithic runner
    (history, bytes, simulated time), pinned by tests.

    Scenario semantics per round: the topology policy may rewire the graph,
    offline (churn) nodes neither train, send, receive nor aggregate (their
    models freeze until they rejoin), messages crossing an open partition are
    suppressed after the sender's uplink is metered, and the barrier clock
    stretches by the worst active straggler's extra compute time.
    """

    name = "sync"

    def run(self, simulator: Simulator) -> None:
        config = simulator.config
        if simulator.arenas is None:
            train = train_rows
        else:
            # Lazy import: the arena module imports this one.
            from repro.simulation.arena import train_batched as train
        clock = 0.0
        start_round = 0
        resume = simulator.consume_resume_state(self.name)
        if resume is not None:
            # Everything else (models, RNG streams, meter, partial result,
            # topology) was restored by the engine; the barrier clock and the
            # next round index are the mode's only private state.
            clock = float(resume.mode_state["clock"])
            start_round = int(resume.rounds_completed)
            # Round latency is measured from the restored clock, not from 0.
            simulator._latency_marks[-1] = clock

        for round_index in range(start_round, config.rounds):
            simulator.apply_topology_policy(round_index)
            state = simulator.scenario_state(round_index)
            active_nodes = [simulator.nodes[node_id] for node_id in state.active]

            # -- train, present, encode (offline nodes sit the round out) ----------
            # Stage-major order is bit-safe: every RNG stream these stages
            # draw from (batches, byzantine, round) is seeded per node.
            trained = train(simulator, active_nodes)
            contexts = [
                present(simulator, node, round_index, state, *params, now=clock)
                for node, params in zip(active_nodes, trained)
            ]
            messages = encode(simulator, active_nodes, contexts)

            # -- deliver -----------------------------------------------------------
            drops_enabled = config.message_drop_probability > 0.0
            inboxes: list[list[Message]] = []
            for node in active_nodes:
                # One pass per neighbor, preserving the original draw order of
                # the drop RNG: a delivery draw happens exactly for the
                # messages that passed the scenario filter, in neighbor order.
                inbox: list[Message] = []
                for neighbor in simulator.topology.neighbors(node.node_id):
                    message = messages.get(neighbor)
                    if message is None:
                        continue  # the sender sat this round out
                    if not state.allows(neighbor, node.node_id):
                        simulator._m_suppressed.inc()
                        continue
                    if drops_enabled and not simulator.deliver_allowed():
                        simulator._m_dropped.inc()
                        continue
                    inbox.append(message)
                for message in inbox:
                    simulator.emit_message(message, node.node_id, clock)
                inboxes.append(inbox)

            # -- aggregate ---------------------------------------------------------
            aggregate(simulator, active_nodes, contexts, inboxes)

            # -- account: meter time and bytes -------------------------------------
            # An all-nodes-offline round (possible under custom schedules) still
            # advances the barrier clock by a silent round's duration.
            max_bytes = max(
                (
                    message.size.total_bytes
                    * len(simulator.topology.neighbors(message.sender))
                    for message in messages.values()
                ),
                default=0,
            )
            round_duration = config.time_model.round_duration(config.local_steps, max_bytes)
            worst_slowdown = state.max_slowdown()
            if worst_slowdown > 1.0:
                # The barrier waits for the slowest straggler's extra compute.
                round_duration += (worst_slowdown - 1.0) * config.time_model.compute_duration(
                    config.local_steps
                )
            clock += round_duration
            simulator.meter.end_round()
            simulator.result.rounds_completed = round_index + 1
            simulator.emit_round_end(round_index, None, clock)

            # -- account: evaluate -------------------------------------------------
            is_last = round_index == config.rounds - 1
            if (round_index + 1) % config.eval_every == 0 or is_last:
                fractions = [message.shared_fraction for message in messages.values()]
                shared = float(np.mean(fractions)) if fractions else 0.0
                simulator.record_evaluation(round_index + 1, shared, clock)
                if simulator.should_stop_at_target():
                    simulator.mark_profile_round(round_index)
                    break
            simulator.mark_profile_round(round_index)
            # Snapshot-safe boundary: the round is fully accounted (models,
            # meter, clock, evaluation) and nothing is in flight.
            simulator.checkpoint_point(lambda: {"kind": self.name, "clock": clock})

        simulator.result.simulated_time_seconds = clock
        simulator.result.per_node_time_seconds = [clock] * config.num_nodes


class AsynchronousMode(ExecutionMode):
    """Event-driven gossip: every node rounds at its own, heterogeneous pace.

    Per node the event chain is ``START_ROUND -> FINISH_TRAIN ->
    DELIVER_MESSAGE (to each neighbor) -> AGGREGATE``:

    * ``START_ROUND``: the node begins its local SGD steps; compute time is
      scaled by its per-node slowdown drawn from the
      :class:`~repro.simulation.timing.HeterogeneousTimeModel`.
    * ``FINISH_TRAIN``: the node prepares its scheme message and pushes one
      copy per neighbor on its uplink; deliveries land after the serialized
      transfer time plus per-link latency (with optional jitter), unless the
      lossy-network model drops them in flight.
    * ``AGGREGATE`` fires once the uplink is drained: the node combines its
      model with whatever its inbox holds *right now* (stale or missing
      neighbors degrade gracefully — that is the point of gossip), then
      immediately starts its next round.

    Evaluation keeps the configured cadence against *globally completed*
    rounds (the minimum round counter over all nodes), so learning curves
    remain comparable to the synchronous mode.  The result records each
    node's final local clock; :attr:`ExperimentResult.clock_skew_seconds`
    is the straggler spread.

    Scenario semantics: every node consults the schedule at *its own* round
    counter.  An offline (churn) round becomes a ``NODE_RESUME`` sleep of one
    compute-round's duration; straggler windows multiply the node's compute
    time; deliveries whose sender/receiver pair an open partition (or an
    offline receiver) forbids are suppressed at send time, judged in the
    sender's round, and a delivery landing on a node that is offline in its
    own round is lost rather than parked.  The topology policy rewires on
    global-round advancement, so dynamic topologies now work under gossip
    too.
    """

    name = "async"

    def run(self, simulator: Simulator) -> None:
        config = simulator.config
        nodes = simulator.nodes
        num_nodes = config.num_nodes
        time_model = config.resolved_time_model()

        heterogeneity_rng = simulator.seeds.rng("heterogeneity")
        compute_slowdown = time_model.sample_compute_multipliers(
            num_nodes, heterogeneity_rng
        )
        bandwidth_scale = time_model.sample_bandwidth_multipliers(
            num_nodes, heterogeneity_rng
        )
        latency_rng = simulator.seeds.rng("link-latency")

        loop = EventLoop()
        # Per receiver: sender -> (sender's round, message) of the freshest
        # delivery currently held.
        inboxes: list[dict[int, tuple[int, Message]]] = [{} for _ in range(num_nodes)]
        contexts: list[RoundContext | None] = [None] * num_nodes
        node_round = [0] * num_nodes
        node_clock = [0.0] * num_nodes
        last_fraction = [1.0] * num_nodes
        evaluated_through = 0

        # Lazy import: the checkpoint package transitively imports this module.
        from repro.checkpoint.serialization import (
            decode_rng_state,
            decode_value,
            encode_rng_state,
            encode_value,
        )

        resume = simulator.consume_resume_state(self.name)
        if resume is not None:
            # Under gossip the "mid-run state" is the whole event fabric: the
            # queue (with its in-flight messages and original sequence
            # numbers), per-node inboxes and live round contexts, the per-node
            # round/clock counters and the latency jitter stream.
            state = resume.mode_state
            loop.restore(
                [decode_value(event) for event in state["loop"]["events"]],
                next_seq=state["loop"]["next_seq"],
                now=state["loop"]["now"],
            )
            for node_id, entries in enumerate(state["inboxes"]):
                for sender, round_sent, message in entries:
                    inboxes[node_id][int(sender)] = (int(round_sent), decode_value(message))
            contexts = [
                None if context is None else decode_value(context)
                for context in state["contexts"]
            ]
            node_round = [int(value) for value in state["node_round"]]
            node_clock = [float(value) for value in state["node_clock"]]
            last_fraction = [float(value) for value in state["last_fraction"]]
            evaluated_through = int(state["evaluated_through"])
            decode_rng_state(latency_rng, state["latency_rng"])
            # Each node's next round latency starts at its restored clock.
            simulator._latency_marks.update(enumerate(node_clock))

        def build_mode_state() -> dict:
            return {
                "kind": self.name,
                "loop": {
                    "now": float(loop.now),
                    "next_seq": int(loop.next_seq),
                    "events": [encode_value(event) for event in loop.pending()],
                },
                "inboxes": [
                    [
                        [int(sender), int(round_sent), encode_value(message)]
                        for sender, (round_sent, message) in inbox.items()
                    ]
                    for inbox in inboxes
                ],
                "contexts": [
                    None if context is None else encode_value(context)
                    for context in contexts
                ],
                "node_round": [int(value) for value in node_round],
                "node_clock": [float(value) for value in node_clock],
                "last_fraction": [float(value) for value in last_fraction],
                "evaluated_through": int(evaluated_through),
                "latency_rng": encode_rng_state(latency_rng),
            }

        def complete_round(node_id: int, now: float) -> bool:
            """Round bookkeeping shared by AGGREGATE and NODE_RESUME.

            Returns ``False`` when the target-accuracy early stop fired (the
            caller clears the loop and exits).
            """

            nonlocal evaluated_through
            node_round[node_id] += 1
            simulator.emit_round_end(node_round[node_id] - 1, node_id, now)

            global_round = min(node_round)
            advanced = global_round > simulator.result.rounds_completed
            if advanced:
                # One ByteMeter round per globally completed round, so
                # per_round_bytes keeps its per-round meaning under gossip.
                simulator.meter.end_round()
                # Rewiring keys off the *global* round: the policy fires once
                # per completed round, at a deterministic point of the event
                # order (the aggregate/resume that advanced the minimum).
                # Reaching config.rounds means everyone is done — no round
                # will run on a fresh graph, so don't sample one.
                if global_round < config.rounds:
                    simulator.apply_topology_policy(global_round)
            simulator.result.rounds_completed = global_round
            due = (
                global_round % config.eval_every == 0
                or global_round == config.rounds
            )
            if global_round > evaluated_through and due:
                evaluated_through = global_round
                simulator.record_evaluation(
                    global_round, float(np.mean(last_fraction)), now
                )
                if simulator.should_stop_at_target():
                    simulator.mark_profile_round(node_round[node_id] - 1)
                    return False
            # Under gossip a "round" boundary is one node finishing its
            # round; the row holds whatever work happened since the last
            # such completion (including any evaluation it triggered).
            simulator.mark_profile_round(node_round[node_id] - 1)
            if node_round[node_id] < config.rounds:
                loop.schedule(now, START_ROUND, node_id)
            # Snapshot-safe boundary: the completing node's next round is
            # scheduled, so the captured queue is self-consistent.  Cadence
            # checkpoints key off *global* round advancement; stop requests
            # are honoured at any completion.
            if advanced or simulator.checkpoint_stop_pending():
                simulator.checkpoint_point(build_mode_state)
            return True

        if resume is None:
            for node in nodes:
                loop.schedule(0.0, START_ROUND, node.node_id)

        while loop:
            event = loop.pop()
            simulator._m_events.inc()
            now, node_id = event.time, event.node_id
            if event.kind != DELIVER_MESSAGE:
                # A delivery is passive: it lands in the inbox without
                # advancing the receiver's own progress clock.
                node_clock[node_id] = max(node_clock[node_id], now)

            if event.kind == START_ROUND:
                state = simulator.scenario_state(node_round[node_id])
                duration = (
                    time_model.compute_duration(config.local_steps)
                    * compute_slowdown[node_id]
                )
                if not state.is_active(node_id):
                    # Offline (churn) round: sleep one compute-round's worth
                    # of time, share nothing, then rejoin the schedule.
                    loop.schedule(now + duration, NODE_RESUME, node_id)
                else:
                    scenario_slowdown = state.slowdowns[node_id]
                    if scenario_slowdown != 1.0:
                        duration *= scenario_slowdown
                    loop.schedule(now + duration, FINISH_TRAIN, node_id)

            elif event.kind == NODE_RESUME:
                last_fraction[node_id] = 0.0  # the offline node shared nothing
                if not complete_round(node_id, now):
                    loop.clear()
                    break

            elif event.kind == FINISH_TRAIN:
                node = nodes[node_id]
                state = simulator.scenario_state(node_round[node_id])
                with simulator.profile("train"):
                    params_start, params_trained = node.local_training()
                context = present(
                    simulator, node, node_round[node_id], state,
                    params_start, params_trained, now,
                )
                contexts[node_id] = context
                with simulator.profile("encode"):
                    message = simulator.record_prepared_message(
                        node, context, node.scheme.prepare(context)
                    )
                last_fraction[node_id] = message.shared_fraction

                neighbors = simulator.topology.neighbors(node_id)
                # The uplink serializes the copies: neighbor k's copy starts
                # travelling only after the first k copies have been pushed.
                transfer = (
                    time_model.transfer_duration(message.size.total_bytes)
                    / bandwidth_scale[node_id]
                )
                for position, neighbor in enumerate(neighbors):
                    sent_at = now + (position + 1) * transfer
                    if not state.allows(node_id, neighbor):
                        # Partitioned away or offline (judged in the sender's
                        # round): the copy leaves the uplink but never lands.
                        simulator._m_suppressed.inc()
                        continue
                    if not simulator.deliver_allowed():
                        # Dropped in flight; uplink bytes already metered.
                        simulator._m_dropped.inc()
                        continue
                    latency = time_model.sample_link_latency(latency_rng)
                    loop.schedule(
                        sent_at + latency,
                        DELIVER_MESSAGE,
                        neighbor,
                        data={"message": message, "round": node_round[node_id]},
                    )
                loop.schedule(now + len(neighbors) * transfer, AGGREGATE, node_id)

            elif event.kind == DELIVER_MESSAGE:
                if not simulator.scenario_state(node_round[node_id]).is_active(node_id):
                    # The receiver is offline in its own current round: the
                    # delivery is lost, not parked for after the outage.
                    simulator._m_suppressed.inc()
                    continue
                message = event.data["message"]
                round_sent = event.data["round"]
                # Keep only the freshest message per sender: gossip aggregation
                # mixes at most one contribution per neighbor.  Latency jitter
                # can reorder a sender's consecutive deliveries, so freshness
                # is judged by the sender's round, not by arrival time.
                held = inboxes[node_id].get(message.sender)
                if held is None or round_sent >= held[0]:
                    inboxes[node_id][message.sender] = (round_sent, message)
                simulator.emit_message(message, node_id, now)

            elif event.kind == AGGREGATE:
                node = nodes[node_id]
                context = contexts[node_id]
                if context is None:  # pragma: no cover - event chain guarantees this
                    raise SimulationError("AGGREGATE fired before FINISH_TRAIN")
                # Mix only with the neighborhood this round's context was built
                # under: a rewiring policy can retire an edge while a delivery
                # is in flight (or parked in the inbox), and schemes validate
                # senders against ``context.neighbor_weights``.  With a static
                # topology every held sender is a neighbor — the filter is a
                # no-op there.
                inbox = [
                    message
                    for _, message in inboxes[node_id].values()
                    if message.sender in context.neighbor_weights
                ]
                inboxes[node_id].clear()
                aggregate_node(simulator, node, context, inbox)
                contexts[node_id] = None
                if not complete_round(node_id, now):
                    loop.clear()
                    break

            else:  # pragma: no cover - only the five kinds above are scheduled
                raise SimulationError(f"unknown event kind {event.kind!r}")

        simulator.result.simulated_time_seconds = float(max(node_clock))
        simulator.result.per_node_time_seconds = [float(t) for t in node_clock]
