"""Tests for the deterministic discrete-event loop."""

import pytest

from repro.exceptions import SimulationError
from repro.simulation.events import (
    AGGREGATE,
    DELIVER_MESSAGE,
    FINISH_TRAIN,
    START_ROUND,
    Event,
    EventLoop,
)


def test_events_pop_in_time_order():
    loop = EventLoop()
    loop.schedule(3.0, FINISH_TRAIN, 0)
    loop.schedule(1.0, START_ROUND, 1)
    loop.schedule(2.0, DELIVER_MESSAGE, 2)
    times = [loop.pop().time for _ in range(3)]
    assert times == [1.0, 2.0, 3.0]


def test_equal_timestamps_break_ties_by_schedule_order():
    loop = EventLoop()
    # Schedule node ids in an order that differs from both insertion order
    # reversed and sorted order, so only the seq tiebreak can explain the
    # observed pop order.
    for node_id in (5, 2, 9, 0, 7):
        loop.schedule(1.5, AGGREGATE, node_id)
    assert [loop.pop().node_id for _ in range(5)] == [5, 2, 9, 0, 7]


def test_seq_numbers_are_monotonic_across_times():
    loop = EventLoop()
    a = loop.schedule(2.0, START_ROUND, 0)
    b = loop.schedule(1.0, START_ROUND, 1)
    assert (a.seq, b.seq) == (0, 1)
    assert loop.pop() is b
    assert loop.pop() is a


def test_pop_advances_the_clock_and_rejects_the_past():
    loop = EventLoop()
    loop.schedule(1.0, START_ROUND, 0)
    assert loop.now == 0.0
    loop.pop()
    assert loop.now == 1.0
    with pytest.raises(SimulationError):
        loop.schedule(0.5, FINISH_TRAIN, 0)
    # Scheduling exactly at the current time is allowed (zero-delay chaining).
    loop.schedule(1.0, FINISH_TRAIN, 0)


def test_pop_from_empty_loop_raises():
    loop = EventLoop()
    with pytest.raises(SimulationError):
        loop.pop()


def test_bool_and_clear():
    loop = EventLoop()
    assert not loop
    loop.schedule(1.0, START_ROUND, 3)
    loop.schedule(2.0, FINISH_TRAIN, 3)
    assert loop
    loop.clear()
    assert not loop


def test_event_data_rides_along_and_is_excluded_from_ordering():
    loop = EventLoop()
    payload = {"message": object()}
    event = loop.schedule(1.0, DELIVER_MESSAGE, 4, data=payload)
    assert event.data is payload
    assert loop.pop().data is payload


def test_sort_key_includes_node_id():
    event = Event(time=2.0, kind=START_ROUND, node_id=7, seq=3)
    assert event.sort_key == (2.0, 3, 7)
