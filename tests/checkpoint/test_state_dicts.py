"""Round-trip tests for every ``state_dict``/``load_state_dict`` pair.

A fresh instance that loads the captured state must behave identically to the
original from that point on — these are the building blocks the snapshot
layer composes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    choco_factory,
    full_sharing_factory,
    quantized_sharing_factory,
    random_sampling_factory,
    topk_sharing_factory,
)
from repro.checkpoint.serialization import decode_value, encode_value
from repro.core import adaptive_jwins_factory, jwins_factory
from repro.core.interface import RoundContext
from repro.exceptions import SimulationError
from repro.simulation.events import EventLoop, START_ROUND
from repro.simulation.network import ByteMeter
from repro.compression.sizing import PayloadSize
from tests.conftest import from_stored_form, stored_form

MODEL_SIZE = 64

FACTORIES = {
    "jwins": jwins_factory(),
    "jwins-adaptive": adaptive_jwins_factory(),
    "full-sharing": full_sharing_factory(),
    "random-sampling": random_sampling_factory(),
    "topk": topk_sharing_factory(),
    "choco": choco_factory(),
    "quantized": quantized_sharing_factory(),
}


def make_context(rng_seed: int, round_index: int) -> RoundContext:
    rng = np.random.default_rng(rng_seed)
    params_start = rng.normal(size=MODEL_SIZE)
    return RoundContext(
        round_index=round_index,
        params_start=params_start,
        params_trained=params_start + 0.01 * rng.normal(size=MODEL_SIZE),
        self_weight=0.5,
        neighbor_weights={1: 0.5},
        rng=np.random.default_rng(1000 + round_index),
        node_id=0,
    )


def through_stored_form(state):
    """Encode ``state``, push it through a snapshot file's header and blobs, decode."""

    return decode_value(from_stored_form(stored_form(encode_value(state))))


def drive_rounds(scheme, rounds: int, start: int = 0) -> list[np.ndarray]:
    """Run full prepare/aggregate rounds; return the new params."""

    outputs = []
    for round_index in range(start, start + rounds):
        context = make_context(round_index, round_index)
        scheme.prepare(context)
        new_params = scheme.aggregate(context, [])
        outputs.append(new_params)
    return outputs


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_scheme_state_roundtrip_preserves_behavior(name):
    factory = FACTORIES[name]
    original = factory(0, MODEL_SIZE, 7)
    drive_rounds(original, 3)

    state = through_stored_form(original.state_dict())
    clone = factory(0, MODEL_SIZE, 7)
    clone.load_state_dict(state)

    continued = drive_rounds(original, 2, start=3)
    resumed = drive_rounds(clone, 2, start=3)
    for a, b in zip(continued, resumed):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_scheme_state_roundtrip_at_round_zero(name):
    factory = FACTORIES[name]
    original = factory(0, MODEL_SIZE, 7)
    clone = factory(0, MODEL_SIZE, 7)
    clone.load_state_dict(
        through_stored_form(original.state_dict())
    )
    a = drive_rounds(original, 2)
    b = drive_rounds(clone, 2)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_scheme_state_roundtrip_mid_round():
    """State captured between prepare and aggregate (async in-flight case)."""

    scheme = jwins_factory()(0, MODEL_SIZE, 7)
    neighbor = jwins_factory()(1, MODEL_SIZE, 8)
    context = make_context(0, 0)
    scheme.prepare(context)
    inbox = [neighbor.prepare(make_context(1, 0))]
    state = through_stored_form(scheme.state_dict())
    assert state["own_coefficients"] is not None
    assert state["start_coefficients"].tobytes() == scheme.start_coefficients.tobytes()

    clone = jwins_factory()(0, MODEL_SIZE, 7)
    clone.load_state_dict(state)
    expected = scheme.aggregate(context, inbox)
    actual = clone.aggregate(context, inbox)
    assert np.array_equal(expected, actual)


def test_stateless_scheme_rejects_foreign_state():
    scheme = full_sharing_factory()(0, MODEL_SIZE, 7)
    with pytest.raises(SimulationError):
        scheme.load_state_dict({"x": 1})


def test_choco_rejects_wrong_model_size():
    scheme = choco_factory()(0, MODEL_SIZE, 7)
    other = choco_factory()(0, MODEL_SIZE * 2, 7)
    with pytest.raises(SimulationError):
        scheme.load_state_dict(other.state_dict())


# -- byte meter -----------------------------------------------------------------------
def test_byte_meter_state_roundtrip():
    meter = ByteMeter(3)
    meter.record_send(0, PayloadSize(100, 10), copies=2)
    meter.end_round()
    meter.record_send(1, PayloadSize(50, 5))
    state = through_stored_form(meter.state_dict())

    clone = ByteMeter(3)
    clone.load_state_dict(state)
    assert clone.total_bytes == meter.total_bytes
    assert clone._round_bytes == meter._round_bytes
    assert np.array_equal(clone.total_bytes_per_node, meter.total_bytes_per_node)
    assert clone.end_round() == meter.end_round()


def test_byte_meter_rejects_wrong_node_count():
    meter = ByteMeter(3)
    with pytest.raises(SimulationError):
        ByteMeter(4).load_state_dict(meter.state_dict())


# -- event loop -----------------------------------------------------------------------
def test_event_loop_restore_preserves_order_and_counter():
    loop = EventLoop()
    loop.schedule(2.0, START_ROUND, 1)
    loop.schedule(1.0, START_ROUND, 0)
    loop.schedule(1.0, START_ROUND, 2)
    loop.pop()  # advance the clock

    events = loop.pending()
    clone = EventLoop()
    clone.restore(events, next_seq=loop.next_seq, now=loop.now)
    assert clone.now == loop.now
    order, expected = [], []
    while clone:
        order.append(clone.pop())
    while loop:
        expected.append(loop.pop())
    assert [e.sort_key for e in order] == [e.sort_key for e in expected]
    # New schedules continue the counter without colliding.
    event = clone.schedule(5.0, START_ROUND, 0)
    assert event.seq >= max(e.seq for e in order) + 1


def test_event_loop_restore_rejects_seq_collision():
    loop = EventLoop()
    event = loop.schedule(1.0, START_ROUND, 0)
    clone = EventLoop()
    with pytest.raises(SimulationError):
        clone.restore([event], next_seq=0, now=0.0)
