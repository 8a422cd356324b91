"""Random-sampling sparsification baseline.

A fixed fraction of model parameters is selected uniformly at random each
round and shared; thanks to the shared pseudo-random seed, only the seed (one
integer) travels as metadata.  This is the network-savings baseline of the
paper (37 % of the parameters per round in the Table I experiments, to match
JWINS' average budget).
"""

from __future__ import annotations

import numpy as np

from repro.compression.float_codec import FloatCodec
from repro.compression.indices import random_indices_from_seed
from repro.compression.sizing import PayloadSize
from repro.core.aggregation import average_inbox
from repro.core.interface import Message, RoundContext, SharingScheme
from repro.exceptions import SimulationError
from repro.sparsification.base import fraction_to_count

__all__ = ["RandomSamplingScheme", "random_sampling_factory"]

MESSAGE_KIND = "random-sampled-parameters"

#: Wire cost of shipping the sampling seed instead of explicit indices.
SEED_METADATA_BYTES = 8


class RandomSamplingScheme(SharingScheme):
    """Share a random fixed-size subset of parameters each round."""

    name = "random-sampling"

    def __init__(
        self,
        node_id: int,
        model_size: int,
        seed: int,
        fraction: float = 0.37,
    ) -> None:
        if not 0.0 < fraction <= 1.0:
            raise SimulationError("sharing fraction must be in (0, 1]")
        self.node_id = int(node_id)
        self.model_size = int(model_size)
        self.fraction = float(fraction)
        self._seed = int(seed)
        self._codec = FloatCodec()

    def _round_seed(self, round_index: int) -> int:
        return (self._seed * 1_000_003 + round_index) & 0x7FFFFFFF

    def prepare(self, context: RoundContext) -> Message:
        count = fraction_to_count(self.fraction, self.model_size)
        round_seed = self._round_seed(context.round_index)
        indices = random_indices_from_seed(round_seed, count, self.model_size)
        values = np.asarray(context.params_trained, dtype=np.float64)[indices]
        compressed = self._codec.compress(values)
        size = PayloadSize(
            values_bytes=compressed.size_bytes, metadata_bytes=SEED_METADATA_BYTES
        )
        payload = {"indices": indices, "values": values, "seed": round_seed}
        return Message(
            sender=self.node_id,
            kind=MESSAGE_KIND,
            payload=payload,
            size=size,
            shared_fraction=min(1.0, values.size / max(1, self.model_size)),
        )

    def aggregate(self, context: RoundContext, messages: list[Message]) -> np.ndarray:
        return average_inbox(
            context.params_trained, context, messages, MESSAGE_KIND, "random sampling"
        )


def random_sampling_factory(fraction: float = 0.37):
    """Factory for :class:`RandomSamplingScheme` nodes with the given fraction."""

    def factory(node_id: int, model_size: int, seed: int) -> RandomSamplingScheme:
        return RandomSamplingScheme(node_id, model_size, seed, fraction=fraction)

    return factory
