"""The :class:`Simulator` engine and its two execution modes.

The engine separates three concerns that used to live in one monolithic loop:

* the :class:`Simulator` owns the *deployment* — nodes, topology, mixing
  weights, byte metering, evaluation and the result being built;
* the execution mode that ``config.execution`` selects owns the *schedule* —
  how rounds unfold in simulated time — and nothing else: a round's work is one
  set of plain stage functions (``train``, ``present``, ``encode``,
  ``deliver``/``admit``, ``aggregate``, ``account``) that both schedules
  call.  :class:`SynchronousMode`
  reproduces the paper's lock-step rounds bit-for-bit as one loop handing each
  stage all active nodes; :class:`AsynchronousMode` runs event-driven gossip as
  a table of per-event-kind handlers calling the same stages with a one-node
  list.  Only ``train`` depends on where node state lives (step-major form in
  :mod:`repro.simulation.arena`); ``encode``/``aggregate`` reach a scheme only
  through its class's rows hooks, which alone decide how many rows share a
  kernel call;
* observers attach to the engine's hook points (see
  :class:`SimulationObserver`) so traces, status heartbeats, early-stop logic
  or live dashboards never require editing the loop itself.

Typical use::

    simulator = Simulator(task, jwins_factory(), config)
    simulator.on_round_end(lambda round_index, node_id, now: print(round_index, now))
    result = simulator.run()

The :func:`~repro.simulation.runner.run_experiment` facade keeps the one-call
API every benchmark and example uses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.checkpoint import preemption
from repro.core.interface import Message, RoundContext, SchemeFactory, SharingScheme
from repro.datasets.base import LearningTask
from repro.datasets.partition import partition_dataset
from repro.exceptions import CheckpointError, ExperimentPaused, SimulationError
from repro.scenarios.schedule import ScenarioSchedule, ScenarioState
from repro.simulation.events import (
    AGGREGATE,
    DELIVER_MESSAGE,
    FINISH_TRAIN,
    NODE_RESUME,
    START_ROUND,
    Event,
    EventLoop,
)
from repro.simulation.experiment import ExperimentConfig
from repro.simulation.metrics import ExperimentResult, RoundRecord
from repro.simulation.network import ByteMeter
from repro.simulation.node import SimulationNode, evaluate_nodes
from repro.topology.graphs import Topology
from repro.topology.weights import MixingRow, metropolis_hastings_rows
from repro.utils.rng import SeedSequenceFactory

if TYPE_CHECKING:  # pragma: no cover - lazy runtime import avoids a cycle
    from repro.checkpoint.snapshot import SimulationSnapshot
    from repro.observability.metrics import MetricsRegistry

__all__ = [
    "AsynchronousMode",
    "SimulationObserver",
    "Simulator",
    "SynchronousMode",
    "build_nodes",
]

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
        )
        node.set_parameters(initial_parameters)
        nodes.append(node)
    return nodes


class SimulationObserver:
    """The engine's hooks; an observer defines any subset of them.

    :meth:`Simulator.add_observer` attaches whichever hooks an object defines
    (a subclass of this or not, like the JSONL trace or the metrics registry);
    the ``None`` placeholders below mark the hooks it leaves out, e.g. a
    dashboard collecting deliveries and evaluation points::

        class Dashboard(SimulationObserver):
            def on_message(self, message, receiver, now):
                ...
            def on_evaluate(self, record):
                ...

        simulator.add_observer(Dashboard())

    The hooks and their arguments:

    ``on_run_start(simulator)``
        ``simulator.run()`` began; a resumed run starts here too, with
        ``simulator.resume_state`` still set.
    ``on_send(message, copies, attack)``
        ``message`` left its sender's uplink as ``copies`` copies, one per
        neighbor, delivered or not; ``attack`` is the byzantine mode the
        sender presented it under (``None`` for an honest send).
    ``on_refuse(message, receiver, now, reason)``
        The copy of ``message`` for ``receiver`` will never land: ``reason``
        is ``"suppressed"`` (an open partition or an offline receiver) or
        ``"dropped"`` (the lossy network's draw).
    ``on_message(message, receiver, now)``
        ``message`` was delivered to ``receiver`` at simulated time ``now``.
    ``on_round_end(round_index, node_id, now)``
        A round finished.  ``node_id`` is ``None`` under the synchronous
        barrier (the round ends globally) and the finishing node's id under
        the asynchronous mode; ``result.rounds_completed`` is already settled.
    ``on_evaluate(record)``
        An evaluation point was recorded.
    ``on_checkpoint(rounds_completed, reason)``
        A snapshot was captured (and handed to the sink, if any); ``reason``
        is ``"cadence"`` or ``"stop"``, and a stop then pauses the run.
    ``on_run_end(result)``
        The run completed (a paused or failed run never gets here).

    Within a round the order is ``on_send`` (each send), ``on_refuse`` and
    ``on_message`` (each copy's fate), ``on_round_end``, then that round's
    ``on_evaluate`` and ``on_checkpoint``, if any.
    """

    on_run_start = on_send = on_refuse = on_message = None
    on_round_end = on_evaluate = on_checkpoint = on_run_end = None


#: The hook names :meth:`Simulator.add_observer` looks for.
OBSERVER_HOOKS = tuple(name for name in vars(SimulationObserver) if name.startswith("on_"))


class Simulator:
    """Owns one decentralized-learning deployment and drives it to completion.

    Parameters
    ----------
    task:
        The learning task (dataset + model + loss factories).
    scheme_factory:
        Factory building one :class:`~repro.core.interface.SharingScheme` per node.
    config:
        The experiment configuration; ``config.execution`` selects
        :class:`SynchronousMode` or :class:`AsynchronousMode`.
    scheme_name:
        Optional display name stored on the result.
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
        Optional :class:`~repro.observability.metrics.MetricsRegistry`,
        attached as an observer.

    Everything that watches a run — the registry, the JSONL trace, a status
    heartbeat — is an observer (:meth:`add_observer`).
    """

    def __init__(
        self,
        task: LearningTask,
        scheme_factory: SchemeFactory,
        config: ExperimentConfig,
        scheme_name: str | None = None,
        checkpoint_every: int = 0,
        checkpoint_sink: Callable[["SimulationSnapshot"], None] | None = None,
        resume_from: "SimulationSnapshot | None" = None,
        spec: dict[str, Any] | None = None,
        metrics: "MetricsRegistry | None" = None,
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
        self.install_topology(
            self.scenario.topology.initial(config.num_nodes, config.degree, self._topology_rng)
        )

        self.meter = ByteMeter(config.num_nodes)
        self._eval_rng = self.seeds.rng("evaluation")
        self._drop_rng = self.seeds.rng("message-drops")
        # Per-node frozen models held by stale-replay attackers; part of the
        # checkpointed state (see repro.checkpoint.snapshot).
        self._byzantine_stale: dict[int, np.ndarray] = {}

        # Both run on either node-state engine: gossip steps nodes through
        # their arena views, lock-step picks its train stage off ``arenas``.
        self.mode = SynchronousMode() if config.execution == "sync" else AsynchronousMode()
        #: The simulated clock's model, built once per run for both modes.
        self.time_model = config.resolved_time_model()

        self.result = ExperimentResult(
            scheme=scheme_name or self.nodes[0].scheme.name,
            task=task.name,
            num_nodes=config.num_nodes,
            rounds_completed=0,
            target_accuracy=config.target_accuracy,
            execution=self.mode.name,
        )

        #: Hook name -> the callbacks attached to it, in registration order.
        self._hooks: dict[str, list[Callable[..., None]]] = {name: [] for name in OBSERVER_HOOKS}
        if metrics is not None:
            self.add_observer(metrics)
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

        self._hooks["on_round_end"].append(callback)
        return self

    def on_message(self, callback: MessageCallback) -> "Simulator":
        """Register ``callback(message, receiver, now)``; returns ``self``."""

        self._hooks["on_message"].append(callback)
        return self

    def on_evaluate(self, callback: EvaluateCallback) -> "Simulator":
        """Register ``callback(record)``; returns ``self``."""

        self._hooks["on_evaluate"].append(callback)
        return self

    def add_observer(self, observer: object) -> "Simulator":
        """Attach every hook ``observer`` defines (see :class:`SimulationObserver`).

        A hook inherited from :class:`SimulationObserver` is not attached, so
        an observer pays only for the hooks it defines.
        """

        for name, callbacks in self._hooks.items():
            hook = getattr(observer, name, None)
            inherited = getattr(type(observer), name, None) is getattr(SimulationObserver, name)
            if hook is not None and not inherited:
                callbacks.append(hook)
        return self

    def _notify(self, hook: str, *args: Any) -> None:
        """Call every callback attached to ``hook`` with ``args``."""

        for callback in self._hooks[hook]:
            callback(*args)

    def emit_message(self, message: Message, receiver: int, now: float) -> None:
        # The loop of ``_notify`` inlined: this runs once per delivered copy.
        for callback in self._hooks["on_message"]:
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

        return self._stop_requested or preemption.interrupted()

    def checkpoint_point(self, mode_state: Callable[[], dict[str, Any]]) -> None:
        """Execution modes call this at snapshot-safe round boundaries.

        ``mode_state`` lazily produces the mode's private state (already
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

        snapshot = capture_snapshot(self, mode_state())
        if self.checkpoint_sink is not None:
            self.checkpoint_sink(snapshot)
        self._notify(
            "on_checkpoint", self.result.rounds_completed, "stop" if stopping else "cadence"
        )
        if stopping:
            raise ExperimentPaused(snapshot)

    def consume_resume_state(self) -> "SimulationSnapshot | None":
        """Hand the pending resume snapshot to the execution mode (once).

        :func:`~repro.checkpoint.snapshot.restore_simulator` has already
        refused a snapshot whose mode state is not this run's mode.
        """

        snapshot, self.resume_state = self.resume_state, None
        return snapshot

    # -- deployment helpers --------------------------------------------------------
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
        self.install_topology(rewired)
        return True

    def install_topology(self, topology: Topology) -> None:
        """Make ``topology`` the communication graph, with its mixing rows.

        ``mixing[i]`` is node ``i``'s row of the Metropolis–Hastings matrix
        (its sorted neighbors, their weights and its self weight): the only
        part of the matrix a node reads, so the deployment holds O(N·deg)
        weights, never an ``(N, N)`` matrix.
        """

        self.topology = topology
        self.mixing: tuple[MixingRow, ...] = metropolis_hastings_rows(topology)

    def make_context(
        self,
        node: SimulationNode,
        round_index: int,
        params_start: np.ndarray,
        params_trained: np.ndarray,
        now: float,
    ) -> RoundContext:
        """Build the :class:`RoundContext` a scheme sees for one round."""

        row = self.mixing[node.node_id]
        return RoundContext(
            round_index=round_index,
            params_start=params_start,
            params_trained=params_trained,
            self_weight=row.self_weight,
            neighbor_weights=dict(zip(row.neighbors, row.weights)),
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

        scores = evaluate_nodes(evaluated, inputs, targets, self.task.accuracy_fn)
        losses, accuracies = zip(*scores)
        return float(np.mean(losses)), float(np.mean(accuracies))

    def record_evaluation(
        self, round_index: int, shared_fraction: float, now: float
    ) -> RoundRecord:
        """Evaluate the deployment and append a :class:`RoundRecord`."""

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
        if (
            self.config.target_accuracy is not None
            and self.result.reached_target_at_round is None
            and test_accuracy >= self.config.target_accuracy
        ):
            self.result.reached_target_at_round = round_index
        self._notify("on_evaluate", record)
        return record

    def should_stop_at_target(self) -> bool:
        """Whether the run reached its target accuracy and must stop."""

        return (
            self.config.target_accuracy is not None
            and self.result.reached_target_at_round is not None
        )

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
        self._notify("on_run_start", self)
        self.mode.run(self)
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
        self._notify("on_run_end", self.result)
        return self.result


# -- stage functions -------------------------------------------------------------------
# The one set of round stages both schedules call: lock-step hands each stage
# all active nodes, the event loop a one-node list.
def train_rows(
    simulator: "Simulator", active_nodes: list[SimulationNode]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Stage ``train`` on private models: a ``(params_start, params_trained)`` per node."""

    pairs = []
    for node in active_nodes:
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
    simulator: "Simulator",
    state: ScenarioState,
    active_nodes: list[SimulationNode],
    contexts: list[RoundContext],
) -> dict[int, Message]:
    """Stage ``encode``: every node's round message, checked and metered, by sender."""

    prepared = _scheme_class(active_nodes).prepare_rows(
        [node.scheme for node in active_nodes], contexts
    )
    on_send = simulator._hooks["on_send"]
    messages: dict[int, Message] = {}
    for node, context, message in zip(active_nodes, contexts, prepared):
        if message.sender != node.node_id:
            raise SimulationError("a scheme produced a message with the wrong sender id")
        # One copy per neighbor leaves the uplink, delivered or not.
        copies = len(context.neighbor_weights)
        simulator.meter.record_send(node.node_id, message.size, copies=copies)
        for callback in on_send:
            callback(message, copies, state.byzantine_mode(node.node_id))
        messages[node.node_id] = message
    return messages


def admit(
    simulator: "Simulator",
    state: ScenarioState,
    message: Message,
    receiver: int,
    now: float,
    draw: bool,
) -> bool:
    """Whether the copy of ``message`` for ``receiver`` survives the send-time filters.

    The scenario filter comes first (an open partition or an offline receiver,
    judged in the sender's round: the copy is *suppressed*), then the lossy
    network's Bernoulli draw (*dropped*) — so the ``message-drops`` stream
    advances exactly once per copy that passed the filter.  ``draw`` keeps the
    two pinned draw rules: lock-step draws only when drops are configured,
    gossip always.  The sender's uplink was metered either way; a refused copy
    is reported through ``on_refuse``.
    """

    if not state.allows(message.sender, receiver):
        simulator._notify("on_refuse", message, receiver, now, "suppressed")
        return False
    if draw and simulator._drop_rng.random() < simulator.config.message_drop_probability:
        simulator._notify("on_refuse", message, receiver, now, "dropped")
        return False
    return True


def deliver(
    simulator: "Simulator",
    state: ScenarioState,
    active_nodes: list[SimulationNode],
    messages: dict[int, Message],
    now: float,
) -> list[list[Message]]:
    """Stage ``deliver`` of a barrier round: every active node's inbox.

    One pass per receiver in neighbor order (the drop stream's draw order);
    a neighbor without a message sat the round out.  A copy to an offline
    neighbor left its sender's uplink too: it is suppressed, without a draw,
    as :func:`admit` would judge it.
    """

    draw = simulator.config.message_drop_probability > 0.0
    inboxes: list[list[Message]] = []
    for node in active_nodes:
        receiver = node.node_id
        inbox = [
            message
            for sender in simulator.mixing[receiver].neighbors
            if (message := messages.get(sender)) is not None
            and admit(simulator, state, message, receiver, now, draw)
        ]
        for message in inbox:
            simulator.emit_message(message, receiver, now)
        inboxes.append(inbox)
    if simulator._hooks["on_refuse"]:
        for message in messages.values():
            for receiver in simulator.mixing[message.sender].neighbors:
                if not state.is_active(receiver):
                    simulator._notify("on_refuse", message, receiver, now, "suppressed")
    return inboxes


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


def account(
    simulator: "Simulator", state: ScenarioState, messages: dict[int, Message]
) -> float:
    """Stage ``account``, clock and bytes: close the meter's round, return its duration.

    The barrier lasts as long as the busiest uplink needs (an all-offline
    round, possible under custom schedules, still lasts a silent round's
    duration) plus the slowest active straggler's extra compute.
    """

    local_steps, time_model = simulator.config.local_steps, simulator.time_model
    uplinks = [
        message.size.total_bytes * len(simulator.mixing[message.sender].neighbors)
        for message in messages.values()
    ]
    duration = time_model.round_duration(local_steps, max(uplinks, default=0))
    worst_slowdown = state.max_slowdown()
    if worst_slowdown > 1.0:
        duration += (worst_slowdown - 1.0) * time_model.compute_duration(local_steps)
    simulator.meter.end_round()
    return duration


class SynchronousMode:
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

    #: Short name stored on :attr:`ExperimentResult.execution`.
    name = "sync"

    def run(self, simulator: Simulator) -> None:
        """Drive ``simulator`` to completion, filling its result in place."""

        config = simulator.config
        if simulator.arenas is None:
            train = train_rows
        else:
            # Lazy import: the arena module imports this one.
            from repro.simulation.arena import train_batched as train
        clock = 0.0
        start_round = 0
        resume = simulator.consume_resume_state()
        if resume is not None:
            # Everything else (models, RNG streams, meter, partial result,
            # topology) was restored by the engine; the barrier clock and the
            # next round index are the mode's only private state.
            clock = float(resume.mode_state["clock"])
            start_round = int(resume.rounds_completed)

        for round_index in range(start_round, config.rounds):
            simulator.apply_topology_policy(round_index)
            state = simulator.scenario_state(round_index)
            # Offline nodes sit the round out.  Stage-major order is bit-safe:
            # every RNG stream the first three stages draw from (batches,
            # byzantine, round) is seeded per node.
            active_nodes = [simulator.nodes[node_id] for node_id in state.active]
            trained = train(simulator, active_nodes)
            contexts = [
                present(simulator, node, round_index, state, *params, now=clock)
                for node, params in zip(active_nodes, trained)
            ]
            messages = encode(simulator, state, active_nodes, contexts)
            inboxes = deliver(simulator, state, active_nodes, messages, clock)
            aggregate(simulator, active_nodes, contexts, inboxes)
            clock += account(simulator, state, messages)
            simulator.result.rounds_completed = round_index + 1
            simulator._notify("on_round_end", round_index, None, clock)

            due = (round_index + 1) % config.eval_every == 0 or round_index == config.rounds - 1
            if due:
                fractions = [message.shared_fraction for message in messages.values()]
                shared = float(np.mean(fractions)) if fractions else 0.0
                simulator.record_evaluation(round_index + 1, shared, clock)
                if simulator.should_stop_at_target():
                    break
            # Snapshot-safe boundary: the round is fully accounted (models,
            # meter, clock, evaluation) and nothing is in flight.
            simulator.checkpoint_point(lambda: {"kind": self.name, "clock": clock})
            # Round t's train output must not live on through round t + 1's
            # train stage: at scale it is two (N, d) copies.
            del trained, contexts, messages, inboxes

        simulator.result.simulated_time_seconds = clock
        simulator.result.per_node_time_seconds = [clock] * config.num_nodes


class AsynchronousMode:
    """Event-driven gossip: every node rounds at its own, heterogeneous pace.

    Per node the event chain is ``START_ROUND -> FINISH_TRAIN ->
    DELIVER_MESSAGE (to each neighbor) -> AGGREGATE``, one handler method per
    event kind over the per-node round state this instance holds:

    * ``START_ROUND``: the node begins its local SGD steps; compute time is
      scaled by its per-node slowdown drawn from the
      :class:`~repro.simulation.timing.TimeModel`.
    * ``FINISH_TRAIN``: the node runs ``train``/``present``/``encode`` as a
      one-node stage and pushes one copy per neighbor on its uplink; deliveries
      land after the serialized transfer time plus per-link latency (with
      optional jitter), unless :func:`admit` refuses them.
    * ``AGGREGATE`` fires once the uplink is drained: the node combines its
      model with whatever its inbox holds *right now* (stale or missing
      neighbors degrade gracefully — that is the point of gossip) through the
      one-node ``aggregate`` stage, then immediately starts its next round.

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
    global-round advancement, so dynamic topologies work under gossip too.
    """

    name = "async"

    def bind(self, simulator: Simulator) -> None:
        """Build the event fabric for ``simulator``: an empty queue, round-zero nodes."""

        config = simulator.config
        self.simulator = simulator
        time_model = self.time_model = simulator.time_model
        rng = simulator.seeds.rng("heterogeneity")
        self.compute_slowdown = time_model.sample_compute_multipliers(config.num_nodes, rng)
        self.bandwidth_scale = time_model.sample_bandwidth_multipliers(config.num_nodes, rng)
        self.latency_rng = simulator.seeds.rng("link-latency")
        self.loop = EventLoop()
        #: Per receiver: sender -> (sender's round, message), the freshest held.
        self.inboxes: list[dict[int, tuple[int, Message]]] = [{} for _ in simulator.nodes]
        self.contexts: list[RoundContext | None] = [None] * config.num_nodes
        self.node_round = [0] * config.num_nodes
        self.node_clock = [0.0] * config.num_nodes
        self.last_fraction = [1.0] * config.num_nodes
        self.evaluated_through = 0
        self.handlers = {
            START_ROUND: self.start_round,
            FINISH_TRAIN: self.finish_train,
            DELIVER_MESSAGE: self.deliver,
            AGGREGATE: self.aggregate,
            NODE_RESUME: self.resume_node,
        }

    # -- checkpointing -------------------------------------------------------------
    def state(self) -> dict[str, Any]:
        """The mode's private state, JSON-encoded (a snapshot's ``mode_state``).

        Under gossip the "mid-run state" is the whole event fabric: the queue
        (with its in-flight messages and original sequence numbers), per-node
        inboxes and live round contexts, the per-node round/clock counters and
        the latency jitter stream.
        """

        from repro.checkpoint import serialization as wire  # lazy: it imports this package

        return {
            "kind": self.name,
            "loop": {
                "now": float(self.loop.now),
                "next_seq": int(self.loop.next_seq),
                "events": [wire.encode_value(event) for event in self.loop.pending()],
            },
            "inboxes": [
                [
                    [int(sender), int(round_sent), wire.encode_value(message)]
                    for sender, (round_sent, message) in inbox.items()
                ]
                for inbox in self.inboxes
            ],
            "contexts": [
                None if context is None else wire.encode_value(context)
                for context in self.contexts
            ],
            "node_round": [int(value) for value in self.node_round],
            "node_clock": [float(value) for value in self.node_clock],
            "last_fraction": [float(value) for value in self.last_fraction],
            "evaluated_through": int(self.evaluated_through),
            "latency_rng": wire.encode_rng_state(self.latency_rng),
        }

    def load_state(self, state: dict[str, Any]) -> None:
        """Overlay a :meth:`state` payload on the freshly bound fabric."""

        from repro.checkpoint import serialization as wire  # lazy: it imports this package

        self.loop.restore(
            [wire.decode_value(event) for event in state["loop"]["events"]],
            next_seq=state["loop"]["next_seq"],
            now=state["loop"]["now"],
        )
        self.inboxes = [
            {
                int(sender): (int(round_sent), wire.decode_value(message))
                for sender, round_sent, message in entries
            }
            for entries in state["inboxes"]
        ]
        self.contexts = [
            None if context is None else wire.decode_value(context)
            for context in state["contexts"]
        ]
        self.node_round = [int(value) for value in state["node_round"]]
        self.node_clock = [float(value) for value in state["node_clock"]]
        self.last_fraction = [float(value) for value in state["last_fraction"]]
        self.evaluated_through = int(state["evaluated_through"])
        wire.decode_rng_state(self.latency_rng, state["latency_rng"])

    # -- the schedule --------------------------------------------------------------
    def run(self, simulator: Simulator) -> None:
        self.bind(simulator)
        resume = simulator.consume_resume_state()
        if resume is not None:
            self.load_state(resume.mode_state)
        else:
            for node in simulator.nodes:
                self.loop.schedule(0.0, START_ROUND, node.node_id)

        loop, node_clock, handlers = self.loop, self.node_clock, self.handlers
        while loop:  # an early stop clears the queue
            event = loop.pop()
            if event.kind != DELIVER_MESSAGE:
                # A delivery is passive: it lands in the inbox without
                # advancing the receiver's own progress clock.
                node_clock[event.node_id] = max(node_clock[event.node_id], event.time)
            handlers[event.kind](event)  # only the five kinds are ever scheduled

        simulator.result.simulated_time_seconds = float(max(node_clock))
        simulator.result.per_node_time_seconds = [float(t) for t in node_clock]

    # -- event handlers ------------------------------------------------------------
    def start_round(self, event: Event) -> None:
        """``START_ROUND``: schedule the end of the node's compute (or of its outage)."""

        node_id = event.node_id
        state = self.simulator.scenario_state(self.node_round[node_id])
        duration = self.time_model.compute_duration(self.simulator.config.local_steps)
        duration *= self.compute_slowdown[node_id]
        if not state.is_active(node_id):
            # Offline (churn) round: sleep one compute-round, share nothing, rejoin.
            self.loop.schedule(event.time + duration, NODE_RESUME, node_id)
            return
        if state.slowdowns[node_id] != 1.0:
            duration *= state.slowdowns[node_id]
        self.loop.schedule(event.time + duration, FINISH_TRAIN, node_id)

    def finish_train(self, event: Event) -> None:
        """``FINISH_TRAIN``: train, present, encode; one copy per neighbor takes off."""

        simulator, node_id, now = self.simulator, event.node_id, event.time
        node = simulator.nodes[node_id]
        round_index = self.node_round[node_id]
        state = simulator.scenario_state(round_index)
        (params,) = train_rows(simulator, [node])
        context = present(simulator, node, round_index, state, *params, now=now)
        self.contexts[node_id] = context
        message = encode(simulator, state, [node], [context])[node_id]
        self.last_fraction[node_id] = message.shared_fraction

        neighbors = simulator.mixing[node_id].neighbors
        # The uplink serializes the copies: neighbor k's copy starts
        # travelling only after the first k copies have been pushed.
        transfer = (
            self.time_model.transfer_duration(message.size.total_bytes)
            / self.bandwidth_scale[node_id]
        )
        data = {"message": message, "round": round_index}
        for position, neighbor in enumerate(neighbors):
            # A refused copy still left the uplink; it just never lands.
            if admit(simulator, state, message, neighbor, now, True):
                sent_at = now + (position + 1) * transfer
                latency = self.time_model.sample_link_latency(self.latency_rng)
                self.loop.schedule(sent_at + latency, DELIVER_MESSAGE, neighbor, data)
        self.loop.schedule(now + len(neighbors) * transfer, AGGREGATE, node_id)

    def deliver(self, event: Event) -> None:
        """``DELIVER_MESSAGE``: the copy lands in the receiver's inbox."""

        simulator, node_id = self.simulator, event.node_id
        message, round_sent = event.data["message"], event.data["round"]
        if not simulator.scenario_state(self.node_round[node_id]).is_active(node_id):
            # Offline in its own current round: lost, not parked for later.
            simulator._notify("on_refuse", message, node_id, event.time, "suppressed")
            return
        # Keep only the freshest message per sender: gossip aggregation mixes
        # at most one contribution per neighbor.  Latency jitter can reorder a
        # sender's deliveries, so freshness is the sender's round, not arrival.
        held = self.inboxes[node_id].get(message.sender)
        if held is None or round_sent >= held[0]:
            self.inboxes[node_id][message.sender] = (round_sent, message)
        simulator.emit_message(message, node_id, event.time)

    def aggregate(self, event: Event) -> None:
        """``AGGREGATE``: mix whatever the inbox holds right now, close the round."""

        node_id = event.node_id
        context = self.contexts[node_id]
        if context is None:  # pragma: no cover - event chain guarantees this
            raise SimulationError("AGGREGATE fired before FINISH_TRAIN")
        # Mix only with the neighborhood this round's context was built under:
        # a rewiring policy can retire an edge while a delivery is in flight
        # (or parked in the inbox), and schemes validate senders against
        # ``context.neighbor_weights``.  A no-op under a static topology.
        inbox = [
            message
            for _, message in self.inboxes[node_id].values()
            if message.sender in context.neighbor_weights
        ]
        self.inboxes[node_id].clear()
        aggregate(self.simulator, [self.simulator.nodes[node_id]], [context], [inbox])
        self.contexts[node_id] = None
        self.complete_round(node_id, event.time)

    def resume_node(self, event: Event) -> None:
        """``NODE_RESUME``: an offline round ends; the node shared nothing."""

        self.last_fraction[event.node_id] = 0.0
        self.complete_round(event.node_id, event.time)

    def complete_round(self, node_id: int, now: float) -> None:
        """Round bookkeeping shared by ``AGGREGATE`` and ``NODE_RESUME``.

        The target-accuracy early stop clears the queue, which ends the run.
        """

        simulator, config = self.simulator, self.simulator.config
        round_index = self.node_round[node_id]
        self.node_round[node_id] += 1

        global_round = min(self.node_round)
        advanced = global_round > simulator.result.rounds_completed
        if advanced:
            # One ByteMeter round per globally completed round, so
            # per_round_bytes keeps its per-round meaning under gossip.
            simulator.meter.end_round()
            # Rewiring keys off the *global* round: once per completed round,
            # at a deterministic point of the event order (the completion
            # that advanced the minimum).  At config.rounds everyone is done:
            # no round will run on a fresh graph, so don't sample one.
            if global_round < config.rounds:
                simulator.apply_topology_policy(global_round)
        simulator.result.rounds_completed = global_round
        # After the global bookkeeping, before the evaluation: observers see
        # settled progress, as under the barrier.
        simulator._notify("on_round_end", round_index, node_id, now)
        due = global_round % config.eval_every == 0 or global_round == config.rounds
        if global_round > self.evaluated_through and due:
            self.evaluated_through = global_round
            simulator.record_evaluation(global_round, float(np.mean(self.last_fraction)), now)
            if simulator.should_stop_at_target():
                self.loop.clear()
                return
        if self.node_round[node_id] < config.rounds:
            self.loop.schedule(now, START_ROUND, node_id)
        # Snapshot-safe boundary: the completing node's next round is
        # scheduled, so the captured queue is self-consistent.  Cadence keys
        # off *global* advancement; a stop is honoured at any completion.
        if advanced or simulator.checkpoint_stop_pending():
            simulator.checkpoint_point(self.state)
