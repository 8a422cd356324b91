"""Experiment configuration.

A single :class:`ExperimentConfig` captures the deployment (number of nodes,
topology, partitioning), the optimization hyperparameters (learning rate,
local steps, batch size), the evaluation cadence, the optional
target accuracy at which the "run until convergence" experiments stop
and — since the engine redesign — the execution mode: ``"sync"`` for the
paper's lock-step rounds, ``"async"`` for event-driven gossip over
heterogeneous nodes (see :mod:`repro.simulation.engine`).

Orthogonally to the execution mode, :attr:`ExperimentConfig.engine` selects
*how node state is stored and stepped*: ``"pernode"`` keeps one private model
per :class:`~repro.simulation.node.SimulationNode`, ``"arena"`` packs all
node state into contiguous ``(N, d)`` arenas and applies each local SGD step
to all rows at once (see :mod:`repro.simulation.arena`).  The share path is
the same code under both, and both produce byte-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.scenarios.schedule import ScenarioSchedule
from repro.simulation.timing import TimeModel
from repro.utils.records import RecordWriter

__all__ = ["ENGINES", "EXECUTION_MODES", "ExperimentConfig"]

#: The execution modes the simulator engine ships with.
EXECUTION_MODES = ("sync", "async")

#: The state-layout engines the simulator ships with: ``"pernode"`` keeps one
#: private model object per node, ``"arena"`` holds node state in contiguous
#: ``(N, d)`` arenas (bit-identical results; see :mod:`repro.simulation.arena`
#: and ``docs/SCALING.md`` for what the choice still buys).
ENGINES = ("pernode", "arena")


@dataclass(frozen=True)
class ExperimentConfig(RecordWriter):
    """Configuration of one decentralized-learning run."""

    num_nodes: int = 16
    degree: int = 4
    dynamic_topology: bool = False
    partition: str = "auto"
    shards_per_node: int = 2

    rounds: int = 50
    local_steps: int = 2
    batch_size: int = 8
    learning_rate: float = 0.05

    eval_every: int = 5
    eval_test_samples: int = 256
    eval_nodes: int | None = None

    seed: int = 1
    message_drop_probability: float = 0.0
    #: The run stops at the first evaluation whose test accuracy reaches it.
    target_accuracy: float | None = None

    #: ``"sync"`` reproduces the paper's lock-step rounds; ``"async"`` runs the
    #: event-driven gossip mode where each node progresses at its own speed.
    execution: str = "sync"
    #: Per-node compute slowdown range used by the async mode (stragglers).
    compute_speed_range: tuple[float, float] = (1.0, 1.0)
    #: Per-node uplink bandwidth scale range used by the async mode.
    bandwidth_scale_range: tuple[float, float] = (1.0, 1.0)
    #: Uniform extra per-delivery latency jitter used by the async mode.
    link_latency_jitter_seconds: float = 0.0
    #: Declarative environment schedule (churn, partitions, stragglers and the
    #: topology rewiring policy).  ``None`` means the trivial scenario implied
    #: by :attr:`dynamic_topology`; see :meth:`resolved_scenario`.
    scenario: ScenarioSchedule | None = None
    #: Node-state engine: ``"pernode"`` runs one private model per node,
    #: ``"arena"`` holds all node state in contiguous ``(N, d)`` arenas and
    #: steps SGD for all rows at once.  Results are byte-identical between
    #: the two; see :mod:`repro.simulation.arena`.
    engine: str = "pernode"

    def __post_init__(self) -> None:
        if self.num_nodes < 2:
            raise ConfigurationError("a decentralized experiment needs at least two nodes")
        if not 0 < self.degree < self.num_nodes:
            raise ConfigurationError("degree must be in (0, num_nodes)")
        if self.rounds <= 0 or self.local_steps <= 0 or self.batch_size <= 0:
            raise ConfigurationError("rounds, local_steps and batch_size must be positive")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if self.eval_every <= 0:
            raise ConfigurationError("eval_every must be positive")
        if self.eval_test_samples <= 0:
            raise ConfigurationError("eval_test_samples must be positive")
        if self.eval_nodes is not None and self.eval_nodes < 1:
            raise ConfigurationError("eval_nodes must be None (every node) or at least 1")
        if self.partition not in {"auto", "shards", "clients", "iid"}:
            raise ConfigurationError(f"unknown partition scheme {self.partition!r}")
        if not 0.0 <= self.message_drop_probability < 1.0:
            raise ConfigurationError("message_drop_probability must be in [0, 1)")
        if self.execution not in EXECUTION_MODES:
            raise ConfigurationError(
                f"unknown execution mode {self.execution!r}; "
                f"choose from {', '.join(EXECUTION_MODES)}"
            )
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; choose from {', '.join(ENGINES)}"
            )
        # Constructing the time model validates the ranges and the jitter
        # once, in timing.py — the single source of truth.
        self.resolved_time_model()
        if self.scenario is not None:
            if not isinstance(self.scenario, ScenarioSchedule):
                raise ConfigurationError("scenario must be a ScenarioSchedule")
            if self.dynamic_topology:
                raise ConfigurationError(
                    "scenario and the legacy dynamic_topology flag are mutually "
                    "exclusive; encode the rewiring policy in the scenario instead"
                )
            self.scenario.validate_for(self.num_nodes, rounds=self.rounds)

    # -- derived views -------------------------------------------------------------
    def resolved_scenario(self) -> ScenarioSchedule:
        """The :class:`~repro.scenarios.schedule.ScenarioSchedule` this run uses.

        An explicit :attr:`scenario` wins.  Otherwise the legacy
        :attr:`dynamic_topology` flag maps onto the subsystem: ``True`` becomes
        the per-round random-regular rewiring policy (bit-identical to the old
        ad-hoc resampling), ``False`` the trivial static scenario.
        """

        if self.scenario is not None:
            return self.scenario
        if self.dynamic_topology:
            return ScenarioSchedule.from_dict(
                {
                    "name": "dynamic",
                    "topology": {"generator": "random-regular", "rewire_every": 1},
                }
            )
        return ScenarioSchedule()

    def resolved_time_model(self) -> TimeModel:
        """The time model of this run: the cluster constants and these ranges."""

        return TimeModel(
            compute_speed_range=self.compute_speed_range,
            bandwidth_scale_range=self.bandwidth_scale_range,
            link_latency_jitter_seconds=self.link_latency_jitter_seconds,
        )

