"""The sharing-scheme interface: the "communication stage" of decentralized learning.

The paper stresses that JWINS only concerns the communication stage of the
train–communicate–aggregate round and is independent of the aggregation
algorithm.  This module captures that boundary: a :class:`SharingScheme`
decides *what* a node sends to its neighbors (`prepare`) and *how* received
messages are combined with the node's own model (`aggregate`).  The simulator
drives schemes through this interface only, so full sharing, random sampling,
TopK, CHOCO-SGD and JWINS are interchangeable.

A round stage hands a scheme class its nodes at once — all active ones under
lock-step, one under gossip (:meth:`SharingScheme.prepare_rows`,
:meth:`SharingScheme.aggregate_rows`): the engine calls nothing else.
The defaults make one per-node call per row; a scheme with matrix kernels
overrides them and decides, from the rows it is given, how many share a call.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.compression.sizing import PayloadSize
from repro.exceptions import SimulationError

__all__ = ["Message", "RoundContext", "SchemeFactory", "SharingScheme"]


@dataclass(frozen=True)
class Message:
    """A message sent by one node to all of its neighbors in one round.

    ``payload`` is scheme-specific (dense parameters, sparse coefficients plus
    indices, CHOCO difference updates, ...); ``size`` is the measured wire
    size of the payload, which is what the byte-metering layer accounts.

    ``shared_fraction`` is the fraction of the model this message carries,
    reported by the scheme itself in :meth:`SharingScheme.prepare` (capped at
    1.0 and measured in parameter counts, i.e. ``values sent / model size``).
    It replaces the simulator's old payload-sniffing heuristic, which guessed
    the fraction from the size of a ``payload["values"]`` entry and silently
    fell back to 1.0 for any scheme using a different payload layout (e.g. a
    purely seed- or dictionary-coded payload) — an explicit field cannot
    mis-report. The default of 1.0 matches a full-model message.
    """

    sender: int
    kind: str
    payload: dict[str, Any] = field(repr=False)
    size: PayloadSize = field(default_factory=lambda: PayloadSize(0, 0))
    shared_fraction: float = 1.0


@dataclass
class RoundContext:
    """Everything a sharing scheme may need about the current round.

    Attributes
    ----------
    round_index:
        Zero-based communication round number ``t``.
    params_start:
        Flat model parameters at the start of the round, ``x^(t,0)``.
    params_trained:
        Flat model parameters after the local training steps, ``x^(t,tau)``.
    self_weight:
        The node's own weight ``W[i][i]`` in the mixing matrix.
    neighbor_weights:
        Mapping from neighbor id to ``W[i][j]`` for the current topology.
    rng:
        Per-node, per-round generator (used e.g. by the randomized cut-off).
    now:
        Simulated time (seconds) at which the round is happening.  Under the
        synchronous mode every node shares the barrier clock; under the
        asynchronous mode each node sees its own local clock.
    node_id:
        Identifier of the node this context belongs to (``-1`` when the
        context is built outside the simulator, e.g. in unit tests).
    """

    round_index: int
    params_start: np.ndarray
    params_trained: np.ndarray
    self_weight: float
    neighbor_weights: dict[int, float]
    rng: np.random.Generator
    now: float = 0.0
    node_id: int = -1

    @property
    def model_size(self) -> int:
        return int(self.params_trained.size)


class SharingScheme(ABC):
    """Per-node state machine implementing the communication stage."""

    #: Human-readable scheme name used in reports and logs.
    name = "abstract"

    @abstractmethod
    def prepare(self, context: RoundContext) -> Message:
        """Build the message this node sends to every neighbor this round."""

    @abstractmethod
    def aggregate(self, context: RoundContext, messages: list[Message]) -> np.ndarray:
        """Combine the node's own trained model with the received messages.

        Returns the new flat parameter vector ``x^(t+1,0)`` that the node
        starts the next round from.
        """

    # -- one round stage over the nodes it is given --------------------------------
    @staticmethod
    def prepare_rows(
        schemes: Sequence["SharingScheme"], contexts: Sequence[RoundContext]
    ) -> list[Message]:
        """Every scheme's round message, in row order: one :meth:`prepare` per row."""

        return [scheme.prepare(context) for scheme, context in zip(schemes, contexts)]

    @staticmethod
    def aggregate_rows(
        schemes: Sequence["SharingScheme"],
        contexts: Sequence[RoundContext],
        inboxes: Sequence[list[Message]],
    ) -> Iterator[tuple[slice, np.ndarray]]:
        """Close the round for every row: yields ``(rows, new_parameters)`` blocks.

        ``rows`` is a slice of the given sequences, ``new_parameters`` those
        nodes' ``(len(rows), model_size)`` next models; blocks come in row
        order and cover every row once.  The default is one :meth:`aggregate`
        per row, one row per block.
        """

        for row, (scheme, context, inbox) in enumerate(zip(schemes, contexts, inboxes)):
            new_params = scheme.aggregate(context, inbox)
            yield slice(row, row + 1), np.asarray(new_params, dtype=np.float64).reshape(1, -1)

    # -- checkpointing -------------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """The scheme's mutable cross-round state, for checkpointing.

        Stateless schemes (full sharing, random sampling) inherit this empty
        default.  Stateful schemes override it together with
        :meth:`load_state_dict`; the returned mapping must only contain
        numbers, strings, ``None``, numpy arrays and lists/dicts thereof so
        :mod:`repro.checkpoint.serialization` can round-trip it exactly.
        """

        return {}

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Restore state captured by :meth:`state_dict` on a fresh instance."""

        if state:
            raise SimulationError(
                f"scheme {self.name!r} is stateless but received state keys "
                f"{sorted(state)}"
            )


SchemeFactory = Callable[[int, int, int], SharingScheme]
"""Factory signature: ``factory(node_id, model_size, seed) -> SharingScheme``."""
