"""Byte metering of the simulated network.

The paper reports the real number of bytes sent by every node (model payload
and sparsification metadata separately, e.g. Figure 4 row 3 and Figure 9).
The :class:`ByteMeter` is the single place where those bytes are accounted:
the scheduler records every message once per neighbor it is delivered to, so
"bytes sent by node i" has exactly the same meaning as in the paper's testbed.
"""

from __future__ import annotations

import numpy as np

from repro.compression.sizing import PayloadSize
from repro.exceptions import SimulationError

__all__ = ["ByteMeter"]


class ByteMeter:
    """Tracks bytes sent per node, split into values and metadata."""

    def __init__(self, num_nodes: int) -> None:
        if num_nodes <= 0:
            raise SimulationError("num_nodes must be positive")
        self.num_nodes = int(num_nodes)
        self._values_bytes = np.zeros(num_nodes, dtype=np.float64)
        self._metadata_bytes = np.zeros(num_nodes, dtype=np.float64)
        self._header_bytes = np.zeros(num_nodes, dtype=np.float64)
        self._round_bytes: list[float] = []
        self._current_round_total = 0.0

    # -- recording ----------------------------------------------------------------
    def record_send(self, node_id: int, size: PayloadSize, copies: int = 1) -> None:
        """Record that ``node_id`` sent a message of ``size`` to ``copies`` neighbors."""

        if not 0 <= node_id < self.num_nodes:
            raise SimulationError(f"unknown node id {node_id}")
        if copies < 0:
            raise SimulationError("copies must be non-negative")
        self._values_bytes[node_id] += size.values_bytes * copies
        self._metadata_bytes[node_id] += size.metadata_bytes * copies
        self._header_bytes[node_id] += size.header_bytes * copies
        self._current_round_total += size.total_bytes * copies

    def end_round(self) -> float:
        """Close the current round; returns the bytes sent in it (all nodes)."""

        total = self._current_round_total
        self._round_bytes.append(total)
        self._current_round_total = 0.0
        return total

    # -- queries -------------------------------------------------------------------
    @property
    def metadata_bytes_per_node(self) -> np.ndarray:
        return self._metadata_bytes.copy()

    @property
    def total_bytes_per_node(self) -> np.ndarray:
        return self._values_bytes + self._metadata_bytes + self._header_bytes

    @property
    def total_bytes(self) -> float:
        """Bytes sent by all nodes together (including any open round)."""

        return float(self.total_bytes_per_node.sum())

    @property
    def total_metadata_bytes(self) -> float:
        return float(self._metadata_bytes.sum())

    @property
    def total_values_bytes(self) -> float:
        return float(self._values_bytes.sum())

    @property
    def average_bytes_per_node(self) -> float:
        return float(self.total_bytes_per_node.mean())

    # -- checkpointing -------------------------------------------------------------
    def state_dict(self) -> dict:
        """Every counter the meter holds, for checkpointing.

        The arrays are the live ones: encoding a snapshot copies them.
        """

        return {
            "values_bytes": self._values_bytes,
            "metadata_bytes": self._metadata_bytes,
            "header_bytes": self._header_bytes,
            "round_bytes": [float(total) for total in self._round_bytes],
            "current_round_total": float(self._current_round_total),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore counters captured by :meth:`state_dict`."""

        for name in ("values_bytes", "metadata_bytes", "header_bytes"):
            counters = np.asarray(state[name], dtype=np.float64)
            if counters.shape != (self.num_nodes,):
                raise SimulationError(
                    f"checkpointed meter field {name!r} has shape {counters.shape}, "
                    f"expected ({self.num_nodes},)"
                )
            setattr(self, f"_{name}", counters.copy())
        self._round_bytes = [float(total) for total in state["round_bytes"]]
        self._current_round_total = float(state["current_round_total"])
