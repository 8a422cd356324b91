"""Per-round metrics and experiment results.

Everything the benchmark harness needs to regenerate the paper's tables and
figures is collected here: the accuracy/loss learning curves (Figure 4 rows 1
and 2), the cumulative bytes per node (row 3), the simulated wall clock
(Figure 6) and helpers such as "rounds until a target accuracy" (Figure 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.compression.sizing import MIB
from repro.observability.contract import TELEMETRY_RESULT_FIELDS
from repro.utils.records import Record

__all__ = ["ExperimentResult", "RoundRecord"]


@dataclass(frozen=True)
class RoundRecord(Record):
    """Metrics observed at one evaluation point."""

    round_index: int
    test_accuracy: float
    test_loss: float
    train_loss: float
    cumulative_bytes_per_node: float
    cumulative_metadata_bytes_per_node: float
    simulated_time_seconds: float
    average_shared_fraction: float


@dataclass
class ExperimentResult(Record):
    """The outcome of one decentralized-learning run."""

    scheme: str
    task: str
    num_nodes: int
    rounds_completed: int
    history: list[RoundRecord] = field(default_factory=list)
    total_bytes: float = 0.0
    total_metadata_bytes: float = 0.0
    total_values_bytes: float = 0.0
    simulated_time_seconds: float = 0.0
    target_accuracy: float | None = None
    reached_target_at_round: int | None = None
    #: Which execution mode produced the result (``"sync"`` or ``"async"``).
    execution: str = "sync"
    #: Local clock of every node when the run ended.  Under the synchronous
    #: barrier all entries equal :attr:`simulated_time_seconds`; under the
    #: asynchronous mode fast nodes finish earlier than stragglers.
    per_node_time_seconds: list[float] = field(default_factory=list)
    #: Per-round scenario trace rows ``{"round": r, "active_nodes": [...],
    #: "partition_ids": [...]}`` — which nodes were up and, if a partition
    #: window was open, which group each node sat in (``None`` = unlisted).
    #: Empty unless the run's scenario scheduled churn/partition/straggler
    #: events.
    scenario_rounds: list[dict[str, Any]] = field(default_factory=list)

    # -- (de)serialization ---------------------------------------------------------
    # Hand-written, not the record codec's: it writes the reserved telemetry keys.
    def to_dict(self) -> dict[str, Any]:
        """JSON-safe representation; exact inverse of :meth:`from_dict`."""

        return {
            "scheme": self.scheme,
            "task": self.task,
            "num_nodes": int(self.num_nodes),
            "rounds_completed": int(self.rounds_completed),
            "history": [record.to_dict() for record in self.history],
            "total_bytes": float(self.total_bytes),
            "total_metadata_bytes": float(self.total_metadata_bytes),
            "total_values_bytes": float(self.total_values_bytes),
            "simulated_time_seconds": float(self.simulated_time_seconds),
            "target_accuracy": (
                None if self.target_accuracy is None else float(self.target_accuracy)
            ),
            "reached_target_at_round": (
                None
                if self.reached_target_at_round is None
                else int(self.reached_target_at_round)
            ),
            "execution": self.execution,
            "per_node_time_seconds": [float(t) for t in self.per_node_time_seconds],
            # Reserved keys of the row format, always empty; see from_dict.
            **{name: empty() for name, empty in TELEMETRY_RESULT_FIELDS.items()},
            "scenario_rounds": [
                {
                    "round": int(row["round"]),
                    "active_nodes": [int(node) for node in row["active_nodes"]],
                    "partition_ids": [
                        None if pid is None else int(pid)
                        for pid in row["partition_ids"]
                    ],
                }
                for row in self.scenario_rounds
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_dict` output.

        The reserved telemetry keys (:data:`TELEMETRY_RESULT_FIELDS`) are
        dropped, whatever they hold: no field carries them any more.
        """

        return super().from_dict(
            {key: value for key, value in data.items() if key not in TELEMETRY_RESULT_FIELDS}
        )

    # -- headline numbers ----------------------------------------------------------
    @property
    def final_accuracy(self) -> float:
        return self.history[-1].test_accuracy if self.history else float("nan")

    @property
    def final_loss(self) -> float:
        return self.history[-1].test_loss if self.history else float("nan")

    @property
    def best_accuracy(self) -> float:
        if not self.history:
            return float("nan")
        return max(record.test_accuracy for record in self.history)

    @property
    def average_bytes_per_node(self) -> float:
        return self.total_bytes / self.num_nodes if self.num_nodes else 0.0

    @property
    def clock_skew_seconds(self) -> float:
        """Spread between the fastest and slowest node's final local clock.

        Zero for synchronous runs (everyone shares the barrier clock); under
        the asynchronous mode it quantifies how far stragglers fell behind.
        """

        if not self.per_node_time_seconds:
            return 0.0
        return float(max(self.per_node_time_seconds) - min(self.per_node_time_seconds))

    @property
    def average_mib_per_node(self) -> float:
        return self.average_bytes_per_node / MIB

    # -- curves ---------------------------------------------------------------------
    def accuracy_curve(self) -> tuple[np.ndarray, np.ndarray]:
        """(rounds, test accuracy) series — Figure 4 row 1."""

        rounds = np.array([record.round_index for record in self.history])
        accuracy = np.array([record.test_accuracy for record in self.history])
        return rounds, accuracy

    # -- target-accuracy queries -------------------------------------------------------
    def rounds_to_accuracy(self, target: float) -> int | None:
        """First evaluated round whose test accuracy reaches ``target``."""

        for record in self.history:
            if record.test_accuracy >= target:
                return record.round_index
        return None

    def bytes_to_accuracy(self, target: float) -> float | None:
        """Cumulative bytes per node when ``target`` accuracy was first reached."""

        for record in self.history:
            if record.test_accuracy >= target:
                return record.cumulative_bytes_per_node
        return None

    def time_to_accuracy(self, target: float) -> float | None:
        """Simulated seconds when ``target`` accuracy was first reached."""

        for record in self.history:
            if record.test_accuracy >= target:
                return record.simulated_time_seconds
        return None
