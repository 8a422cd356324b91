"""Typed events and the deterministic discrete-event loop.

The asynchronous execution mode of the simulator is a classic discrete-event
simulation: nodes react to scheduled events (start a round, finish training,
receive a message, aggregate) instead of marching through a global barrier.
Determinism is non-negotiable for a reproduction, so the :class:`EventLoop`
orders events by the total key ``(time, seq, node_id)`` — ``seq`` is a
monotonically increasing schedule counter, which makes the pop order of
equal-time events exactly their scheduling order, independent of heap
internals or hash randomization.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any

from repro.exceptions import SimulationError

__all__ = [
    "AGGREGATE",
    "DELIVER_MESSAGE",
    "Event",
    "EventLoop",
    "FINISH_TRAIN",
    "NODE_RESUME",
    "START_ROUND",
]

#: A node begins a new round (training is about to start).
START_ROUND = "start-round"
#: A node's local SGD steps are done; it prepares and sends its message.
FINISH_TRAIN = "finish-train"
#: A message arrives at a receiver's inbox.
DELIVER_MESSAGE = "deliver-message"
#: A node drains its inbox and applies the aggregation rule.
AGGREGATE = "aggregate"
#: A node finishes an offline (churn) round: it neither trained nor sent, its
#: round counter simply advances and it re-enters the schedule.
NODE_RESUME = "node-resume"


@dataclass(frozen=True)
class Event:
    """One scheduled occurrence in the simulated deployment.

    Attributes
    ----------
    time:
        Simulated second at which the event fires.
    kind:
        One of the five module-level event-kind constants (:data:`START_ROUND`,
        :data:`FINISH_TRAIN`, :data:`DELIVER_MESSAGE`, :data:`AGGREGATE`,
        :data:`NODE_RESUME`) or a user-defined string for custom execution modes.
    node_id:
        The node the event happens *at* (the receiver for deliveries).
    seq:
        Schedule-order sequence number assigned by the :class:`EventLoop`;
        breaks ties between equal-time events deterministically.
    data:
        Optional event payload (e.g. the in-flight :class:`~repro.core.interface.Message`).
    """

    time: float
    kind: str
    node_id: int
    seq: int = 0
    data: dict[str, Any] | None = field(default=None, compare=False, repr=False)

    @property
    def sort_key(self) -> tuple[float, int, int]:
        """The total order the event loop pops events in."""

        return (self.time, self.seq, self.node_id)


class EventLoop:
    """Deterministic priority queue of :class:`Event` objects.

    Events pop in ``(time, seq, node_id)`` order.  The loop tracks the
    current simulated time (the time of the last popped event) and refuses
    to schedule into the past, which would silently reorder causality.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[tuple[float, int, int], Event]] = []
        self._seq = 0
        self._now = 0.0

    @property
    def now(self) -> float:
        """Simulated time of the most recently popped event."""

        return self._now

    def schedule(
        self,
        time: float,
        kind: str,
        node_id: int,
        data: dict[str, Any] | None = None,
    ) -> Event:
        """Enqueue an event and return it."""

        time = float(time)
        if time < self._now:
            raise SimulationError(
                f"cannot schedule {kind!r} at t={time:.6f}: the clock is already "
                f"at t={self._now:.6f}"
            )
        event = Event(time=time, kind=str(kind), node_id=int(node_id), seq=self._seq, data=data)
        self._seq += 1
        heapq.heappush(self._heap, (event.sort_key, event))
        return event

    def pop(self) -> Event:
        """Remove and return the next event, advancing the clock to it."""

        if not self._heap:
            raise SimulationError("pop from an empty event loop")
        _, event = heapq.heappop(self._heap)
        self._now = event.time
        return event

    def clear(self) -> None:
        """Drop all pending events (used by early-stop)."""

        self._heap.clear()

    # -- checkpointing -------------------------------------------------------------
    def pending(self) -> list[Event]:
        """Every scheduled event in pop order (the loop is left untouched)."""

        return [event for _, event in sorted(self._heap, key=lambda item: item[0])]

    @property
    def next_seq(self) -> int:
        """The sequence number the next :meth:`schedule` call will assign."""

        return self._seq

    def restore(self, events: list[Event], next_seq: int, now: float) -> None:
        """Reload a checkpointed queue: events keep their original ``seq``.

        ``next_seq`` must not collide with a restored event's sequence number —
        reusing one would silently break the deterministic pop order.
        """

        next_seq = int(next_seq)
        for event in events:
            if event.seq >= next_seq:
                raise SimulationError(
                    f"restored event seq {event.seq} collides with the next "
                    f"schedule counter {next_seq}"
                )
        self._heap = [(event.sort_key, event) for event in events]
        heapq.heapify(self._heap)
        self._seq = next_seq
        self._now = float(now)

    def __bool__(self) -> bool:
        return bool(self._heap)
