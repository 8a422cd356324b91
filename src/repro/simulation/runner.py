"""The one-call experiment facade.

:func:`run_experiment` is a thin wrapper over
:class:`~repro.simulation.engine.Simulator`: it builds the engine from the
configuration (which selects one of the two execution modes, ``"sync"``
lock-step rounds or ``"async"`` event-driven gossip, and independently the
node-state engine: private per-node models, or the ``(N, d)`` arenas of
:mod:`repro.simulation.arena`) and runs it to completion.  Resuming is the same call:
``resume_from=`` a :class:`~repro.checkpoint.snapshot.SimulationSnapshot`
continues the run bit-identically to never having stopped (``task``,
``scheme_factory`` and ``config`` must describe the deployment shape the
snapshot was captured from; schedule-level changes — another scenario, more
rounds — are the ``fork`` workflow).  Every orchestrated cell reaches this
function through :meth:`~repro.orchestration.spec.ExperimentSpec.run`, the
only call to it in the CLI and the orchestration layer.  Anything that watches
the run — a trace, a dashboard — goes in ``observers=`` and is attached through
:meth:`~repro.simulation.engine.Simulator.add_observer`.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.core.interface import SchemeFactory
from repro.datasets.base import LearningTask
from repro.simulation.engine import SimulationObserver, Simulator, build_nodes
from repro.simulation.experiment import ExperimentConfig
from repro.simulation.metrics import ExperimentResult

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.checkpoint.snapshot import SimulationSnapshot
    from repro.observability.status import CellStatusWriter

__all__ = ["build_nodes", "run_experiment"]


class _Heartbeat(SimulationObserver):
    """A status heartbeat on the engine's round-end and checkpoint hooks.

    ``heartbeat`` is duck-typed (``on_round(rounds_completed)``,
    ``on_checkpoint(rounds_completed)`` and, optionally,
    ``on_run_start(rounds_completed)``).  The run-start hook passes the round
    the run starts from — a resume's restored rounds, which this process did
    not run, so a rate must leave them out.  Both execution modes settle
    ``result.rounds_completed`` before the round-end hook, so it reports
    settled progress; a checkpoint counts once a sink holds the snapshot.
    Hooks fire whether or not anyone listens, so a heartbeat cannot perturb
    RNG order or results.
    """

    def __init__(self, simulator: Simulator, heartbeat: "CellStatusWriter") -> None:
        # Weak: the simulator holds this observer through its hooks, and a
        # strong reference back would leave a finished cell's whole deployment
        # (every model and scheme) to the cyclic collector instead of freeing
        # it when the run's last reference goes.
        self.simulator = weakref.ref(simulator)
        self.heartbeat = heartbeat

    def on_run_start(self, simulator: Simulator) -> None:
        run_start = getattr(self.heartbeat, "on_run_start", None)
        if run_start is not None:
            run_start(simulator.result.rounds_completed)

    def on_round_end(self, round_index: int, node_id: int | None, now: float) -> None:
        self.heartbeat.on_round(self.simulator().result.rounds_completed)

    def on_checkpoint(self, rounds_completed: int, reason: str) -> None:
        if self.simulator().checkpoint_sink is not None:
            self.heartbeat.on_checkpoint(rounds_completed)


def run_experiment(
    task: LearningTask,
    scheme_factory: SchemeFactory,
    config: ExperimentConfig,
    scheme_name: str | None = None,
    checkpoint_every: int = 0,
    checkpoint_sink: Callable[["SimulationSnapshot"], None] | None = None,
    resume_from: "SimulationSnapshot | None" = None,
    spec: dict[str, Any] | None = None,
    observers: Sequence[object] = (),
    heartbeat: "CellStatusWriter | None" = None,
) -> ExperimentResult:
    """Run one decentralized-learning experiment and return its metrics.

    Builds a :class:`~repro.simulation.engine.Simulator` for ``task`` with one
    :class:`~repro.core.interface.SharingScheme` per node (from
    ``scheme_factory``) and drives it under the execution mode selected by
    ``config.execution`` and the node-state engine selected by
    ``config.engine`` (``"arena"`` holds state in ``(N, d)`` arenas, with
    results byte-identical to the default per-node models; either scales a
    single process to thousands of nodes).  ``scheme_name`` overrides the
    display name stored on the result.

    The checkpoint parameters mirror the :class:`Simulator` constructor:
    ``checkpoint_every``/``checkpoint_sink`` capture mid-run snapshots,
    ``resume_from`` continues a paused run (see
    :mod:`repro.checkpoint`), and ``spec`` tags snapshots with the
    orchestration cell that produced them.  All default to off, in which case
    behaviour is bit-identical to a build without checkpointing.

    ``observers`` and ``heartbeat`` attach the observability layer (see
    :mod:`repro.observability`): each observer (e.g. a
    :class:`~repro.observability.metrics.MetricsRegistry` or a
    :class:`~repro.observability.trace.TraceEmitter`) gets the engine's hooks
    (:meth:`~repro.simulation.engine.Simulator.add_observer`), and a status
    heartbeat (a :class:`~repro.observability.status.CellStatusWriter`)
    reports live progress — current round and last checkpoint round — through
    the same hooks.  All are pure telemetry — the returned result and any
    persisted store rows are byte-identical with them on or off.
    """

    simulator = Simulator(
        task,
        scheme_factory,
        config,
        scheme_name=scheme_name,
        checkpoint_every=checkpoint_every,
        checkpoint_sink=checkpoint_sink,
        resume_from=resume_from,
        spec=spec,
    )
    for observer in observers:
        simulator.add_observer(observer)
    if heartbeat is not None:
        simulator.add_observer(_Heartbeat(simulator, heartbeat))
    return simulator.run()
