"""Declarative scenario schedules: churn, partitions, stragglers, adversaries.

A :class:`ScenarioSchedule` describes *how the deployment's environment
evolves over rounds*, independently of any execution mode: which nodes are
offline (churn, as :class:`NodeOutage` windows), which groups of nodes are
temporarily cut off from each other (:class:`PartitionWindow`), which nodes
run slower for a while (:class:`StragglerWindow`), which nodes send
adversarially corrupted models (:class:`ByzantineWindow`) and how the
communication graph is generated and rewired (a
:class:`~repro.topology.policy.GeneratorPolicy`).

The schedule is *pure data*: :meth:`ScenarioSchedule.state_at` maps a round
index to an immutable :class:`ScenarioState` (active nodes, per-node partition
ids, per-node slowdowns, per-node Byzantine modes), and both execution modes
consume that state —
:class:`~repro.simulation.engine.SynchronousMode` per barrier round,
:class:`~repro.simulation.engine.AsynchronousMode` per node-local round.
Because the state is a pure function of the round index, a scenario run is as
deterministic as a plain one: same seed, same schedule, bit-identical result,
regardless of worker count or execution interleaving.

Everything round-trips exactly through ``to_dict``/``from_dict`` (the record
codec of :mod:`repro.utils.records`), so schedules can live in sweep
overrides, cross process boundaries and key the content-addressed result
store.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from repro.exceptions import ConfigurationError
from repro.topology.policy import GeneratorPolicy
from repro.utils.records import Record

__all__ = [
    "BYZANTINE_MODES",
    "ByzantineWindow",
    "NodeOutage",
    "PartitionWindow",
    "ScenarioSchedule",
    "ScenarioState",
    "StragglerWindow",
]

#: Supported Byzantine sender behaviors (see :class:`ByzantineWindow`).
BYZANTINE_MODES = ("random-gradient", "sign-flip", "stale-replay")


def _check_window(name: str, start_round: int, end_round: int | None) -> None:
    if start_round < 0:
        raise ConfigurationError(f"{name}: start_round must be non-negative")
    if end_round is not None and end_round <= start_round:
        raise ConfigurationError(
            f"{name}: end_round must be greater than start_round "
            f"(got [{start_round}, {end_round}))"
        )


@dataclass(frozen=True)
class NodeOutage(Record):
    """One churn event: ``node`` is offline during ``[start_round, end_round)``.

    An offline node neither trains, sends nor receives; its model is frozen
    until it rejoins.  ``end_round=None`` means the node never comes back.
    """

    node: int
    start_round: int
    end_round: int | None = None

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ConfigurationError("outage node id must be non-negative")
        _check_window("outage", self.start_round, self.end_round)

    def covers(self, round_index: int) -> bool:
        if round_index < self.start_round:
            return False
        return self.end_round is None or round_index < self.end_round


@dataclass(frozen=True)
class PartitionWindow(Record):
    """A temporary network partition during ``[start_round, end_round)``.

    ``groups`` are disjoint sets of node ids; while the window is open,
    messages only flow between nodes of the same group.  Nodes in no group
    form one implicit remainder group (they keep talking to each other, but
    not to any listed group).
    """

    start_round: int
    end_round: int
    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _check_window("partition", self.start_round, self.end_round)
        groups = tuple(tuple(sorted(int(node) for node in group)) for group in self.groups)
        if len(groups) < 2:
            raise ConfigurationError("a partition needs at least two groups")
        seen: set[int] = set()
        for group in groups:
            if not group:
                raise ConfigurationError("partition groups must be non-empty")
            if seen.intersection(group):
                raise ConfigurationError("partition groups must be disjoint")
            seen.update(group)
        object.__setattr__(self, "groups", groups)

    def covers(self, round_index: int) -> bool:
        return self.start_round <= round_index < self.end_round


@dataclass(frozen=True)
class StragglerWindow(Record):
    """``nodes`` compute ``slowdown``x slower during ``[start_round, end_round)``.

    Affects simulated time only (round duration under the synchronous
    barrier, per-node event timing under asynchronous gossip) — the learning
    dynamics are unchanged, which is exactly what a straggler is.
    """

    start_round: int
    end_round: int
    nodes: tuple[int, ...]
    slowdown: float

    def __post_init__(self) -> None:
        _check_window("straggler window", self.start_round, self.end_round)
        nodes = tuple(sorted(int(node) for node in self.nodes))
        if not nodes:
            raise ConfigurationError("a straggler window needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise ConfigurationError("straggler nodes must be unique")
        if self.slowdown < 1.0:
            raise ConfigurationError("straggler slowdown must be >= 1")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "slowdown", float(self.slowdown))

    def covers(self, round_index: int) -> bool:
        return self.start_round <= round_index < self.end_round


@dataclass(frozen=True)
class ByzantineWindow(Record):
    """``nodes`` send adversarial models during ``[start_round, end_round)``.

    The corruption happens at *send time*, after local training and before the
    compression scheme encodes the payload, so every scheme faces the same
    attack (the adversary also keeps the corrupted model locally — a fully
    Byzantine participant, not just a noisy link).  ``mode`` picks the attack:

    - ``"random-gradient"``: replace the local update with seeded Gaussian
      noise of the same RMS magnitude (an unhelpful but plausible-looking
      sender).
    - ``"sign-flip"``: send the update with its sign inverted (actively
      pushes the average away from the honest direction).
    - ``"stale-replay"``: freeze the first in-window model and resend it every
      round (a replay attacker / stuck client).
    """

    start_round: int
    end_round: int
    nodes: tuple[int, ...]
    mode: str

    def __post_init__(self) -> None:
        _check_window("byzantine window", self.start_round, self.end_round)
        nodes = tuple(sorted(int(node) for node in self.nodes))
        if not nodes:
            raise ConfigurationError("a byzantine window needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise ConfigurationError("byzantine nodes must be unique")
        if nodes[0] < 0:
            raise ConfigurationError("byzantine node ids must be non-negative")
        if self.mode not in BYZANTINE_MODES:
            raise ConfigurationError(
                f"unknown byzantine mode {self.mode!r}; "
                f"available: {', '.join(BYZANTINE_MODES)}"
            )
        object.__setattr__(self, "nodes", nodes)

    def covers(self, round_index: int) -> bool:
        return self.start_round <= round_index < self.end_round


@dataclass(frozen=True)
class ScenarioState:
    """The environment one round sees: who is up, who talks to whom, who lags."""

    round_index: int
    active: tuple[int, ...]
    partition_ids: tuple[int | None, ...]
    slowdowns: tuple[float, ...]
    byzantine: tuple[str | None, ...] = ()

    @cached_property
    def _active_set(self) -> frozenset[int]:
        """``active`` as a set: membership is asked O(N) times a round."""

        return frozenset(self.active)

    def is_active(self, node: int) -> bool:
        return node in self._active_set

    def byzantine_mode(self, node: int) -> str | None:
        """The attack ``node`` mounts this round (``None`` for honest nodes)."""

        if not self.byzantine:
            return None
        return self.byzantine[node]

    def allows(self, sender: int, receiver: int) -> bool:
        """Whether a message from ``sender`` can reach ``receiver`` this round."""

        if sender not in self._active_set or receiver not in self._active_set:
            return False
        return self.partition_ids[sender] == self.partition_ids[receiver]

    def max_slowdown(self) -> float:
        """The worst straggler factor among active nodes (1.0 when none lag)."""

        if not self.active:
            return 1.0
        return max(self.slowdowns[node] for node in self.active)


@dataclass(frozen=True)
class ScenarioSchedule(Record):
    """A named, serializable schedule of environment events over rounds.

    The default instance (``ScenarioSchedule()``) is the trivial scenario: a
    static topology from the default generator, every node up, no partitions,
    no stragglers — byte-for-byte equivalent to a pre-scenario run.
    """

    name: str = "static"
    topology: GeneratorPolicy = field(default_factory=GeneratorPolicy)
    outages: tuple[NodeOutage, ...] = ()
    partitions: tuple[PartitionWindow, ...] = ()
    stragglers: tuple[StragglerWindow, ...] = ()
    byzantine: tuple[ByzantineWindow, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a scenario needs a non-empty name")
        if not isinstance(self.topology, GeneratorPolicy):
            raise ConfigurationError("scenario topology must be a GeneratorPolicy")
        for name, cls in (
            ("outages", NodeOutage),
            ("partitions", PartitionWindow),
            ("stragglers", StragglerWindow),
            ("byzantine", ByzantineWindow),
        ):
            values = tuple(getattr(self, name))
            for value in values:
                if not isinstance(value, cls):
                    raise ConfigurationError(
                        f"expected {cls.__name__} entries, got {type(value).__name__}"
                    )
            object.__setattr__(self, name, values)

    # -- queries -------------------------------------------------------------------
    @property
    def has_events(self) -> bool:
        """Whether any churn/partition/straggler/byzantine event is scheduled."""

        return bool(
            self.outages or self.partitions or self.stragglers or self.byzantine
        )

    def _windows(self) -> tuple[tuple[str, Any], ...]:
        """Every scheduled window, paired with a human-readable kind label."""

        return (
            tuple(("outage", outage) for outage in self.outages)
            + tuple(("partition", window) for window in self.partitions)
            + tuple(("straggler window", window) for window in self.stragglers)
            + tuple(("byzantine window", window) for window in self.byzantine)
        )

    def validate_for(self, num_nodes: int, rounds: int | None = None) -> None:
        """Check the schedule fits a ``num_nodes`` x ``rounds`` deployment.

        Every referenced node id must exist, and — when ``rounds`` is given —
        every window must open before the run ends (a window whose
        ``start_round`` is past the last round could never fire, which is
        always a configuration mistake; windows merely *ending* past
        ``rounds`` are fine and simply get truncated by the run length).
        The error names the offending window.
        """

        for outage in self.outages:
            if outage.node >= num_nodes:
                raise ConfigurationError(
                    f"scenario {self.name!r}: outage references node {outage.node}, "
                    f"but the deployment has {num_nodes} nodes"
                )
        for window in self.partitions:
            for group in window.groups:
                for node in group:
                    if node >= num_nodes:
                        raise ConfigurationError(
                            f"scenario {self.name!r}: partition references node "
                            f"{node}, but the deployment has {num_nodes} nodes"
                        )
        for kind, window in self._windows():
            if kind in ("straggler window", "byzantine window"):
                for node in window.nodes:
                    if node >= num_nodes:
                        raise ConfigurationError(
                            f"scenario {self.name!r}: {kind} references node "
                            f"{node}, but the deployment has {num_nodes} nodes"
                        )
        if rounds is not None:
            for kind, window in self._windows():
                if window.start_round >= rounds:
                    raise ConfigurationError(
                        f"scenario {self.name!r}: {kind} "
                        f"{json.dumps(window.to_dict(), sort_keys=True)} starts at "
                        f"round {window.start_round}, but the run only has "
                        f"{rounds} round(s)"
                    )

    def state_at(self, round_index: int, num_nodes: int) -> ScenarioState:
        """The :class:`ScenarioState` round ``round_index`` runs under.

        Overlapping partition windows resolve to the earliest-declared open
        window; straggler factors multiply when windows overlap on a node;
        overlapping byzantine windows resolve per node to the
        earliest-declared open window covering that node.
        """

        offline = {
            outage.node for outage in self.outages if outage.covers(round_index)
        }
        active = tuple(node for node in range(num_nodes) if node not in offline)
        if not active:
            raise ConfigurationError(
                f"scenario {self.name!r} leaves no active nodes at round {round_index}"
            )

        partition_ids: list[int | None] = [None] * num_nodes
        for window in self.partitions:
            if window.covers(round_index):
                for group_id, group in enumerate(window.groups):
                    for node in group:
                        partition_ids[node] = group_id
                break

        slowdowns = [1.0] * num_nodes
        for window in self.stragglers:
            if window.covers(round_index):
                for node in window.nodes:
                    slowdowns[node] *= window.slowdown

        byzantine: list[str | None] = [None] * num_nodes
        for window in self.byzantine:
            if window.covers(round_index):
                for node in window.nodes:
                    if byzantine[node] is None:
                        byzantine[node] = window.mode

        return ScenarioState(
            round_index=round_index,
            active=active,
            partition_ids=tuple(partition_ids),
            slowdowns=tuple(slowdowns),
            byzantine=tuple(byzantine),
        )
