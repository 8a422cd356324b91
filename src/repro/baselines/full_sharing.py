"""Full-sharing baseline (plain D-PSGD communication).

Every round the node sends its entire trained parameter vector to every
neighbor and computes the Metropolis–Hastings weighted average of its own and
all received models.  This is the accuracy reference of the paper — the best
models, at the highest communication cost.
"""

from __future__ import annotations

import numpy as np

from repro.compression.float_codec import FloatCodec
from repro.compression.sizing import PayloadSize
from repro.core.aggregation import average_inbox
from repro.core.interface import Message, RoundContext, SharingScheme

__all__ = ["FullSharingScheme", "full_sharing_factory"]

MESSAGE_KIND = "full-model"


class FullSharingScheme(SharingScheme):
    """Share the complete model with all neighbors each round."""

    name = "full-sharing"

    def __init__(self, node_id: int, model_size: int, seed: int) -> None:
        self.node_id = int(node_id)
        self.model_size = int(model_size)
        self._codec = FloatCodec()

    def prepare(self, context: RoundContext) -> Message:
        values = np.asarray(context.params_trained, dtype=np.float64)
        compressed = self._codec.compress(values)
        size = PayloadSize(values_bytes=compressed.size_bytes, metadata_bytes=0)
        return Message(
            sender=self.node_id,
            kind=MESSAGE_KIND,
            payload={"values": values.copy()},
            size=size,
            shared_fraction=1.0,
        )

    def aggregate(self, context: RoundContext, messages: list[Message]) -> np.ndarray:
        # Own-centered form of the weighted average: a neighbor whose message
        # never arrived implicitly contributes the node's own model, so the
        # scheme degrades gracefully under message loss or churn.
        return average_inbox(
            context.params_trained, context, messages, MESSAGE_KIND, "full sharing"
        )


def full_sharing_factory():
    """Factory for :class:`FullSharingScheme` nodes."""

    return FullSharingScheme
