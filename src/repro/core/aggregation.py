"""Weighted averaging of sparse (partial) model vectors.

When a node only receives a subset of a neighbor's coefficients, the missing
entries are substituted with the node's own values before the weighted
(Metropolis–Hastings) averaging — this is how partial sharing is aggregated in
DecentralizePy and what Algorithm 1 line 10 ("average all received partial
wavelets with own coefficients") means in practice.  The same helper serves
the parameter domain (random sampling, TopK), the wavelet domain (JWINS) and —
a dense model being the contribution that shares every position — full and
quantized sharing.  :func:`weighted_inbox` is the other half every scheme
shares: reading an inbox into ``(weight, payload)`` pairs.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

import numpy as np

from repro.core.interface import Message, RoundContext
from repro.exceptions import SimulationError

__all__ = [
    "SparseContribution",
    "average_inbox",
    "partial_weighted_average",
    "weighted_inbox",
]


def weighted_inbox(
    context: RoundContext, messages: Iterable[Message], kind: str, label: str
) -> Iterator[tuple[float, dict[str, Any]]]:
    """Each message's mixing weight and payload, after the checks all schemes share.

    It must be of the scheme's ``kind`` (``label`` names the scheme in the
    error) and come from a neighbor of this round's topology.
    """

    for message in messages:
        if message.kind != kind:
            raise SimulationError(
                f"{label} received an incompatible message of kind {message.kind!r}"
            )
        weight = context.neighbor_weights.get(message.sender)
        if weight is None:
            raise SimulationError(
                f"received a message from non-neighbor node {message.sender}"
            )
        yield weight, message.payload


class SparseContribution:
    """One neighbor's contribution: ``values`` at ``indices`` with ``weight``.

    ``indices=None`` is the dense case: ``values`` covers every position.
    """

    __slots__ = ("weight", "indices", "values")

    def __init__(self, weight: float, indices: np.ndarray | None, values: np.ndarray) -> None:
        self.weight = float(weight)
        self.indices = None if indices is None else np.asarray(indices, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        if self.indices is not None and self.indices.shape != self.values.shape:
            raise SimulationError("indices and values must have the same length")


def partial_weighted_average(
    own: np.ndarray,
    self_weight: float,
    contributions: Iterable[SparseContribution],
) -> np.ndarray:
    """Weighted average of the own vector with sparse neighbor contributions.

    Each neighbor's vector is mentally "completed" by filling its unshared
    entries with the own values, then the usual weighted average is taken:

    ``result = W_ii * own + sum_j W_ij * completed_j``

    which simplifies to adding ``W_ij * (values_j - own[indices_j])`` at the
    shared positions.  The weights of the received contributions plus the own
    weight may sum to *less* than one: any missing mass (a neighbor whose
    message was dropped or who left the network) implicitly keeps the node's
    own values, which is what makes the sharing schemes robust to message loss
    and churn.  A total above one is always an error — it would amplify the
    model instead of averaging it.
    """

    own = np.asarray(own, dtype=np.float64)
    result = own.copy()
    total_weight = float(self_weight)
    for contribution in contributions:
        indices = contribution.indices
        if indices is None:
            if contribution.values.shape != own.shape:
                raise SimulationError("a dense contribution must match the own vector's shape")
            indices = slice(None)
        elif indices.size and (indices.min() < 0 or indices.max() >= own.size):
            raise SimulationError("contribution indices out of range")
        result[indices] += contribution.weight * (contribution.values - own[indices])
        total_weight += contribution.weight
    if total_weight > 1.0 + 1e-6:
        raise SimulationError(
            f"mixing weights must not exceed 1 for a stable average, got {total_weight}"
        )
    return result


def average_inbox(
    own: np.ndarray,
    context: RoundContext,
    messages: Iterable[Message],
    kind: str,
    label: str,
) -> np.ndarray:
    """:func:`partial_weighted_average` of ``own`` with a whole inbox.

    A payload contributes its ``"values"`` at its ``"indices"``, or everywhere
    when it has none.  The inbox is read (and checked) as the average runs.
    """

    return partial_weighted_average(
        own,
        context.self_weight,
        (
            SparseContribution(weight, payload.get("indices"), payload["values"])
            for weight, payload in weighted_inbox(context, messages, kind, label)
        ),
    )
