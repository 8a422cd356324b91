"""Decentralized-learning simulator: the event-driven engine and its parts.

The package is organized around the :class:`~repro.simulation.engine.Simulator`
engine:

* :mod:`repro.simulation.engine` — the :class:`Simulator` (nodes, topology,
  byte metering, evaluation) plus the two execution modes:
  :class:`SynchronousMode` (the paper's lock-step rounds, one six-stage loop)
  and :class:`AsynchronousMode` (event-driven gossip over heterogeneous nodes);
* :mod:`repro.simulation.arena` — the arena engine: node state held in
  contiguous ``(N, d)`` arenas plus the step-major train stage that loop runs
  under ``ExperimentConfig.engine="arena"``, byte-identical to private
  per-node models (see ``docs/SCALING.md``);
* :mod:`repro.simulation.events` — the typed :class:`Event` and the
  deterministic :class:`EventLoop` the async mode runs on;
* :mod:`repro.simulation.runner` — the :func:`run_experiment` one-call facade
  (``resume_from=`` a snapshot continues a paused run; there is no separate
  resume entry point);
* :mod:`repro.simulation.experiment` — :class:`ExperimentConfig`, including
  the ``execution`` mode and heterogeneity knobs;
* :mod:`repro.simulation.timing` — :class:`TimeModel`;
* :mod:`repro.simulation.node`, :mod:`repro.simulation.network`,
  :mod:`repro.simulation.metrics` — nodes, byte metering and results.

Attach observers (any object defining some of
:class:`SimulationObserver`'s hooks) instead of editing the loop::

    simulator = Simulator(task, scheme_factory, config)
    simulator.on_evaluate(lambda record: print(record.round_index, record.test_accuracy))
    result = simulator.run()
"""

from repro.simulation.arena import NodeArenas, build_arena_nodes
from repro.simulation.engine import (
    AsynchronousMode,
    SimulationObserver,
    Simulator,
    SynchronousMode,
)
from repro.simulation.events import Event, EventLoop
from repro.simulation.experiment import ENGINES, EXECUTION_MODES, ExperimentConfig
from repro.simulation.metrics import ExperimentResult, RoundRecord
from repro.simulation.network import ByteMeter
from repro.simulation.node import SimulationNode
from repro.simulation.runner import build_nodes, run_experiment
from repro.simulation.timing import TimeModel

__all__ = [
    "AsynchronousMode",
    "ByteMeter",
    "ENGINES",
    "EXECUTION_MODES",
    "Event",
    "EventLoop",
    "NodeArenas",
    "ExperimentConfig",
    "ExperimentResult",
    "RoundRecord",
    "SimulationNode",
    "SimulationObserver",
    "Simulator",
    "SynchronousMode",
    "TimeModel",
    "build_arena_nodes",
    "build_nodes",
    "run_experiment",
]
