"""CHOCO-SGD baseline (Koloskova et al., ICML 2019) — memory-efficient variant.

CHOCO-SGD is the state-of-the-art communication-compressed decentralized
learning algorithm the paper compares against (Section IV-D).  Each node keeps
a *public* copy ``x_hat`` of its own model and the weighted sum ``s`` of the
public copies of its neighborhood.  Every round it compresses the difference
between its freshly trained private model and its public copy with TopK, sends
only that compressed difference, and applies a gossip correction scaled by the
consensus step size ``gamma`` — the extra hyperparameter the paper points out
CHOCO is highly sensitive to.

Because the correction state is tied to fixed neighbors, CHOCO is unsuitable
for dynamic topologies (Figure 7), which the simulator reproduces faithfully:
with a re-sampled topology the stale ``s`` makes learning stall.
"""

from __future__ import annotations

import numpy as np

from repro.compression.float_codec import FloatCodec
from repro.compression.indices import EliasGammaIndexCodec
from repro.compression.sizing import PayloadSize
from repro.core.aggregation import weighted_inbox
from repro.core.interface import Message, RoundContext, SharingScheme
from repro.exceptions import SimulationError
from repro.sparsification.base import fraction_to_count
from repro.sparsification.topk import topk_indices

__all__ = ["ChocoScheme", "choco_factory"]

MESSAGE_KIND = "choco-compressed-difference"


class ChocoScheme(SharingScheme):
    """Memory-efficient CHOCO-SGD with TopK compression."""

    name = "choco"

    def __init__(
        self,
        node_id: int,
        model_size: int,
        seed: int,
        fraction: float,
        gamma: float,
    ) -> None:
        if not 0.0 < fraction <= 1.0:
            raise SimulationError("compression fraction must be in (0, 1]")
        if gamma <= 0.0:
            raise SimulationError("consensus step size gamma must be positive")
        self.node_id = int(node_id)
        self.model_size = int(model_size)
        self.fraction = float(fraction)
        self.gamma = float(gamma)
        self._codec = FloatCodec()
        self._index_codec = EliasGammaIndexCodec()
        # Public copy of the own model and weighted neighborhood sum.
        self._x_hat = np.zeros(model_size, dtype=np.float64)
        self._neighborhood_sum = np.zeros(model_size, dtype=np.float64)
        self._own_update: tuple[np.ndarray, np.ndarray] | None = None

    def prepare(self, context: RoundContext) -> Message:
        trained = np.asarray(context.params_trained, dtype=np.float64)
        difference = trained - self._x_hat
        count = fraction_to_count(self.fraction, self.model_size)
        indices = topk_indices(difference, count)
        values = difference[indices]
        self._own_update = (indices, values)

        compressed = self._codec.compress(values)
        encoded = self._index_codec.encode(indices, self.model_size)
        size = PayloadSize(
            values_bytes=compressed.size_bytes, metadata_bytes=encoded.size_bytes
        )
        payload = {"indices": indices, "values": values}
        return Message(
            sender=self.node_id,
            kind=MESSAGE_KIND,
            payload=payload,
            size=size,
            shared_fraction=min(1.0, values.size / max(1, self.model_size)),
        )

    def aggregate(self, context: RoundContext, messages: list[Message]) -> np.ndarray:
        if self._own_update is None:
            raise SimulationError("aggregate called before prepare")
        own_indices, own_values = self._own_update
        trained = np.asarray(context.params_trained, dtype=np.float64)

        # Update the public copy of the own model: x_hat += Q(x - x_hat).
        self._x_hat[own_indices] += own_values
        # Update the weighted neighborhood sum with every public-copy update,
        # including the node's own (weight W[i][i]).
        self._neighborhood_sum[own_indices] += context.self_weight * own_values
        for weight, payload in weighted_inbox(context, messages, MESSAGE_KIND, "CHOCO"):
            indices = np.asarray(payload["indices"], dtype=np.int64)
            values = np.asarray(payload["values"], dtype=np.float64)
            self._neighborhood_sum[indices] += weight * values

        self._own_update = None
        # Gossip correction towards the neighborhood average of public copies.
        return trained + self.gamma * (self._neighborhood_sum - self._x_hat)

    # -- checkpointing -----------------------------------------------------------
    def state_dict(self) -> dict:
        """Public copy, neighborhood sum and the in-flight update (if any).

        The arrays are the live ones: encoding a snapshot copies them.
        """

        return {
            "x_hat": self._x_hat,
            "neighborhood_sum": self._neighborhood_sum,
            "own_update": self._own_update,
        }

    def load_state_dict(self, state) -> None:
        """Restore state captured by :meth:`state_dict`."""

        x_hat = np.asarray(state["x_hat"], dtype=np.float64)
        neighborhood_sum = np.asarray(state["neighborhood_sum"], dtype=np.float64)
        if x_hat.size != self.model_size or neighborhood_sum.size != self.model_size:
            raise SimulationError(
                "checkpointed CHOCO state does not match this node's model size"
            )
        self._x_hat = x_hat.copy()
        self._neighborhood_sum = neighborhood_sum.copy()
        own_update = state["own_update"]
        self._own_update = (
            None
            if own_update is None
            else (
                np.asarray(own_update[0], dtype=np.int64),
                np.asarray(own_update[1], dtype=np.float64),
            )
        )


def choco_factory(fraction: float = 0.37, gamma: float = 0.6):
    """Factory for :class:`ChocoScheme` nodes with the given budget and step size."""

    def factory(node_id: int, model_size: int, seed: int) -> ChocoScheme:
        return ChocoScheme(node_id, model_size, seed, fraction=fraction, gamma=gamma)

    return factory
