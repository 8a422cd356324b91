"""Quantized full sharing: the quantization branch of ML compression.

The paper's background section (II-B) splits communication compression into
sparsification (JWINS, random sampling, TopK, CHOCO's operator) and
quantization (QSGD and friends).  This baseline covers the latter family: each
node shares its *entire* model every round, but quantized with the QSGD
stochastic quantizer to a few bits per parameter.  Aggregation is plain
D-PSGD weighted averaging over the dequantized models, so accuracy degrades
gracefully with the bit width while bytes shrink roughly by ``32 / (bits+1)``.
"""

from __future__ import annotations

import numpy as np

from repro.compression.quantization import QsgdQuantizer
from repro.compression.sizing import PayloadSize
from repro.core.aggregation import average_inbox
from repro.core.interface import Message, RoundContext, SharingScheme

__all__ = ["QuantizedSharingScheme", "quantized_sharing_factory"]

MESSAGE_KIND = "quantized-full-model"

#: Consecutive parameters that share one QSGD scaling norm.
BUCKET_SIZE = 256


class QuantizedSharingScheme(SharingScheme):
    """Share the full model quantized to ``bits`` bits per parameter.

    As in practical QSGD deployments, the parameter vector is quantized in
    buckets (one scaling norm per :data:`BUCKET_SIZE` consecutive parameters)
    rather than with a single global norm — a single norm over tens of
    thousands of parameters would make the per-coordinate quantization noise
    overwhelm the signal.
    """

    name = "quantized-sharing"

    def __init__(
        self,
        node_id: int,
        model_size: int,
        seed: int,
        bits: int = 4,
    ) -> None:
        self.node_id = int(node_id)
        self.model_size = int(model_size)
        self.bits = int(bits)
        self._quantizer = QsgdQuantizer(bits=bits, rng=np.random.default_rng(seed))

    def prepare(self, context: RoundContext) -> Message:
        trained = np.asarray(context.params_trained, dtype=np.float64)
        dequantized = np.empty_like(trained)
        values_bytes = 0
        for start in range(0, trained.size, BUCKET_SIZE):
            bucket = trained[start : start + BUCKET_SIZE]
            quantized = self._quantizer.quantize(bucket)
            dequantized[start : start + BUCKET_SIZE] = self._quantizer.dequantize(quantized)
            values_bytes += quantized.size_bytes
        size = PayloadSize(values_bytes=values_bytes, metadata_bytes=0)
        return Message(
            sender=self.node_id,
            kind=MESSAGE_KIND,
            payload={"values": dequantized, "bits": self.bits},
            size=size,
            shared_fraction=1.0,
        )

    def aggregate(self, context: RoundContext, messages: list[Message]) -> np.ndarray:
        # Own-centered weighted average (see FullSharingScheme.aggregate): a
        # missing neighbor message implicitly contributes the own model.
        return average_inbox(
            context.params_trained, context, messages, MESSAGE_KIND, "quantized sharing"
        )

    # -- checkpointing -----------------------------------------------------------
    def state_dict(self) -> dict:
        """The stochastic-rounding RNG state (the scheme's only mutable state)."""

        return {"quantizer": self._quantizer.state_dict()}

    def load_state_dict(self, state) -> None:
        """Restore state captured by :meth:`state_dict`."""

        self._quantizer.load_state_dict(state["quantizer"])


def quantized_sharing_factory(bits: int = 4):
    """Factory for :class:`QuantizedSharingScheme` nodes."""

    def factory(node_id: int, model_size: int, seed: int) -> QuantizedSharingScheme:
        return QuantizedSharingScheme(node_id, model_size, seed, bits=bits)

    return factory
