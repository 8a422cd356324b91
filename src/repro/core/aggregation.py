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

from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.core.interface import Message, RoundContext
from repro.exceptions import SimulationError

__all__ = [
    "SparseContribution",
    "average_inbox",
    "inbox_contributions",
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
    self_weight: float | Sequence[float],
    contributions: Iterable[SparseContribution] | Sequence[Iterable[SparseContribution]],
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

    Rows form: an ``(n, d)`` ``own`` takes ``n`` self weights and ``n``
    contribution iterables, row ``r``'s inbox being ``contributions[r]``.  A
    1-D ``own`` is the one-row case (a ``[None]`` view, one copy as ever).
    The contributions go in slot-major: the k-th of every row in one
    fancy-index update (message by message when the messages are long), so
    each element still takes its additions in inbox order and every row is
    bit-identical to averaging it alone.  The error
    raised is the one averaging the rows one by one meets first: a weight
    total or dense shape that fails while the inboxes are read, or an inbox
    that cannot be read, re-checks the rows in order; past that, only an index
    out of range is left, checked a slot at a time.
    """

    own = np.asarray(own, dtype=np.float64)
    if own.ndim == 1:
        return _average_rows(own[None], [self_weight], [contributions])[0]
    return _average_rows(own, self_weight, contributions)


_WEIGHT_TOLERANCE = 1.0 + 1e-6

#: A slot whose messages carry more values than this on average is added one
#: message at a time: the flat update's extra passes (row offsets, repeated
#: weights) then cost more than the per-message calls it saves.  Measured with
#: 8-771 rows: flat wins 2.7x at 32 values a message, breaks even near 300-1,000
#: and loses 1.3-1.6x at 3,000 (``mlp1k_arena`` sends about 100, ``conv8_sync``
#: thousands).
_FLAT_SLOT_MEAN_VALUES = 512


def _contribution_error(
    indices: np.ndarray | None, values: np.ndarray, size: int
) -> str | None:
    """What is wrong with a contribution for a length-``size`` vector, if anything."""

    if indices is None:
        if values.shape != (size,):
            return "a dense contribution must match the own vector's shape"
    elif indices.size and (indices.min() < 0 or indices.max() >= size):
        return "contribution indices out of range"
    return None


class _Slot:
    """The k-th contributions of every row that has one, as parallel lists.

    Arrays and floats, not :class:`SparseContribution` objects or tuples: a
    pass holds all its contributions at once, and these are not objects the
    cyclic garbage collector has to count and walk.
    """

    __slots__ = ("rows", "indices", "values", "weights")

    def __init__(self) -> None:
        self.rows: list[int] = []
        self.indices: list[np.ndarray | None] = []
        self.values: list[np.ndarray] = []
        self.weights: list[float] = []


def _raise_first_error(
    size: int,
    self_weights: Sequence[float],
    slots: list[_Slot],
    rows_read: int,
    last_row_read: bool = True,
) -> None:
    """Raise the error averaging the rows one at a time raises first, if any.

    A row is checked contribution by contribution, then its total weight —
    unless it is the last read and its reading failed (``last_row_read`` false).
    """

    inboxes: list[list[tuple[np.ndarray | None, np.ndarray, float]]] = [
        [] for _ in range(rows_read)
    ]
    for slot in slots:
        for row, *contribution in zip(slot.rows, slot.indices, slot.values, slot.weights):
            inboxes[row].append(tuple(contribution))
    for row, (self_weight, inbox) in enumerate(zip(self_weights, inboxes)):
        total_weight = float(self_weight)
        for indices, values, weight in inbox:
            error = _contribution_error(indices, values, size)
            if error is not None:
                raise SimulationError(error)
            total_weight += weight
        if total_weight > _WEIGHT_TOLERANCE and (last_row_read or row < rows_read - 1):
            raise SimulationError(
                f"mixing weights must not exceed 1 for a stable average, got {total_weight}"
            )


def _average_rows(
    own: np.ndarray,
    self_weights: Sequence[float],
    inboxes: Sequence[Iterable[SparseContribution]],
) -> np.ndarray:
    """:func:`partial_weighted_average` of an ``(n, d)`` matrix."""

    if len(self_weights) != len(own) or len(inboxes) != len(own):
        raise SimulationError("the rows form needs one self weight and one inbox per row")
    size = own.shape[1]
    slots: list[_Slot] = []
    rows_read = 0
    suspect = False  # a row over weight, or a dense contribution of the wrong shape
    try:
        for row, (self_weight, inbox) in enumerate(zip(self_weights, inboxes)):
            rows_read = row + 1
            total_weight = float(self_weight)
            for position, contribution in enumerate(inbox):
                if position == len(slots):
                    slots.append(_Slot())
                slot = slots[position]
                slot.rows.append(row)
                slot.indices.append(contribution.indices)
                slot.values.append(contribution.values)
                slot.weights.append(contribution.weight)
                total_weight += contribution.weight
                if contribution.indices is None:
                    suspect = suspect or contribution.values.shape != own.shape[1:]
            suspect = suspect or total_weight > _WEIGHT_TOLERANCE
    except SimulationError:
        # An inbox that cannot be read: an earlier row's error still comes first.
        _raise_first_error(size, self_weights, slots, rows_read, last_row_read=False)
        raise
    if suspect:
        _raise_first_error(size, self_weights, slots, rows_read)
    # What is left to go wrong is an index out of range, one message whichever row.
    result = own.copy()
    if slots and len(slots[0].rows) > 1:
        own = np.ascontiguousarray(own)  # flat gathers below; a one-row call never copies
    for slot in slots:
        lengths = [values.size for values in slot.values]
        if len(lengths) == 1 or sum(lengths) > _FLAT_SLOT_MEAN_VALUES * len(lengths):
            for row, indices, values, weight in zip(
                slot.rows, slot.indices, slot.values, slot.weights
            ):
                error = _contribution_error(indices, values, size)
                if error is not None:
                    raise SimulationError(error)
                positions = slice(None) if indices is None else indices
                result[row][positions] += weight * (values - own[row][positions])
            continue
        # Flat positions, then (values - own) * weight in place: one slot's
        # temporaries at a time, each the size of the slot's messages.
        columns = np.concatenate(
            [np.arange(size) if indices is None else indices for indices in slot.indices]
        )
        if columns.size and (columns.min() < 0 or columns.max() >= size):
            raise SimulationError("contribution indices out of range")
        columns += np.repeat(np.multiply(slot.rows, size), lengths)
        deltas = np.concatenate(slot.values)
        deltas -= own.reshape(-1)[columns]
        deltas *= np.repeat(slot.weights, lengths)
        result.reshape(-1)[columns] += deltas
    return result


def inbox_contributions(
    context: RoundContext, messages: Iterable[Message], kind: str, label: str
) -> Iterator[SparseContribution]:
    """Each message of an inbox as the contribution it mixes in (see :func:`weighted_inbox`).

    A payload contributes its ``"values"`` at its ``"indices"``, or everywhere
    when it has none.
    """

    for weight, payload in weighted_inbox(context, messages, kind, label):
        yield SparseContribution(weight, payload.get("indices"), payload["values"])


def average_inbox(
    own: np.ndarray,
    context: RoundContext,
    messages: Iterable[Message],
    kind: str,
    label: str,
) -> np.ndarray:
    """:func:`partial_weighted_average` of ``own`` with a whole inbox.

    The inbox is read (and checked) as the average runs.
    """

    return partial_weighted_average(
        own, context.self_weight, inbox_contributions(context, messages, kind, label)
    )
