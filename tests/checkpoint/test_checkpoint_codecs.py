"""Exactness tests for the checkpoint codecs.

Every codec must be lossless through the stored form of an encoded tree — the
snapshot file's header plus raw blobs — because the determinism contract's
fourth pillar (interrupt + resume is byte-identical) rests on it.  Each round
trip runs twice: through that form held in memory, and through a real snapshot
file written by ``save`` and read back by ``load`` (aligned blobs, read-only
views of one buffer).
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.checkpoint.serialization import (
    decode_rng_state,
    decode_value,
    encode_rng_state,
    encode_value,
    join_blobs,
    new_rng_from_state,
    split_blobs,
)
from repro.checkpoint.snapshot import SimulationSnapshot
from repro.compression.sizing import PayloadSize
from repro.core.interface import Message, RoundContext
from repro.exceptions import CheckpointError
from repro.simulation.events import DELIVER_MESSAGE, Event
from tests.conftest import from_stored_form, stored_form


def through_blobs(value, directory):
    """Encode, push the header through JSON text and the arrays through bytes, decode."""

    return decode_value(from_stored_form(stored_form(encode_value(value))))


def through_file(value, directory):
    """Encode, save inside a snapshot file, load that file, decode."""

    snapshot = SimulationSnapshot(
        execution="sync",
        config={},
        task="",
        scheme="",
        model_size=0,
        rounds_completed=0,
        result={},
        nodes=[],
        rng_streams={},
        topology={},
        meter={},
        mode_state={"kind": "sync", "value": encode_value(value)},
    )
    loaded = SimulationSnapshot.load(snapshot.save(directory / "value.ckpt"))
    return decode_value(loaded.mode_state["value"])


@pytest.fixture(params=[through_blobs, through_file], ids=["blobs", "file"])
def roundtrip(request, tmp_path):
    return lambda value: request.param(value, tmp_path)


# -- arrays ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "array",
    [
        np.arange(7, dtype=np.float64) / 3.0,
        np.array([], dtype=np.float64),
        np.array([np.nan, np.inf, -np.inf, -0.0, 1e-308]),
        np.arange(12, dtype=np.int64).reshape(3, 4),
        np.array([True, False, True]),
        np.arange(6, dtype=np.float32).reshape(2, 3) * np.float32(0.1),
    ],
)
def test_array_roundtrip_is_bit_exact(array, roundtrip):
    restored = roundtrip(array)
    assert restored.dtype == array.dtype
    assert restored.shape == array.shape
    assert np.array_equal(
        restored.view(np.uint8) if restored.size else restored,
        array.view(np.uint8) if array.size else array,
    )


def test_restored_array_is_writable(roundtrip):
    restored = roundtrip(np.zeros(4))
    restored[0] = 1.0  # frombuffer views are read-only; decode must copy


def test_noncontiguous_array_roundtrip(roundtrip):
    array = np.arange(20, dtype=np.float64).reshape(4, 5)[:, ::2]
    restored = roundtrip(array)
    assert np.array_equal(restored, array)


# -- rng streams ----------------------------------------------------------------------
def test_rng_state_roundtrip_reproduces_stream():
    rng = np.random.default_rng(1234)
    rng.random(17)  # consume a partial buffer so has_uint32 paths are hit
    rng.integers(0, 100, 3)
    state = json.loads(json.dumps(encode_rng_state(rng)))
    clone = new_rng_from_state(state)
    assert np.array_equal(rng.random(32), clone.random(32))
    assert np.array_equal(rng.integers(0, 10**9, 8), clone.integers(0, 10**9, 8))


def test_decode_rng_state_rejects_wrong_bit_generator():
    rng = np.random.default_rng(0)
    with pytest.raises(CheckpointError):
        decode_rng_state(rng, {"bit_generator": "Philox", "state": {}})


def test_generator_inside_value_roundtrips(roundtrip):
    rng = np.random.default_rng(5)
    rng.random(3)
    restored = roundtrip({"stream": rng})
    assert np.array_equal(restored["stream"].random(5), rng.random(5))


# -- scalars and containers -----------------------------------------------------------
def test_scalars_and_nan_roundtrip(roundtrip):
    value = {"a": 1, "b": -0.5, "c": None, "d": True, "e": "text", "nan": float("nan")}
    restored = roundtrip(value)
    assert restored["a"] == 1 and restored["d"] is True
    assert math.isnan(restored["nan"])


def test_numpy_scalars_become_native(roundtrip):
    restored = roundtrip({"i": np.int64(7), "f": np.float64(0.25), "b": np.bool_(True)})
    assert restored == {"i": 7, "f": 0.25, "b": True}
    assert type(restored["i"]) is int and type(restored["f"]) is float


def test_int_keyed_mapping_preserves_keys_and_order(roundtrip):
    mapping = {3: 0.3, 1: 0.1, 2: 0.2}
    restored = roundtrip(mapping)
    assert restored == mapping
    assert list(restored) == [3, 1, 2]  # insertion order fixes FP summation order


def test_tuples_come_back_as_lists(roundtrip):
    assert roundtrip((1, 2, (3, 4))) == [1, 2, [3, 4]]


def test_reserved_marker_key_is_refused():
    with pytest.raises(CheckpointError):
        encode_value({"__blob__": 1})


def test_encoded_arrays_are_copies_that_stay_put():
    live = np.arange(4, dtype=np.float64)
    encoded = encode_value({"params": live})
    live[0] = 99.0  # the run goes on after a capture
    assert encoded["params"].tolist() == [0.0, 1.0, 2.0, 3.0]
    restored = decode_value(encoded)
    restored["params"][1] = -1.0  # a restore owns its arrays
    assert encoded["params"].tolist() == [0.0, 1.0, 2.0, 3.0]


def test_big_endian_arrays_are_stored_little_endian(roundtrip):
    array = np.arange(5, dtype=">f8") / 7.0
    (blob,) = split_blobs(encode_value(array))[1]
    assert blob.dtype.str == "<f8"
    assert blob.tobytes() == array.astype("<f8").tobytes()
    assert np.array_equal(roundtrip(array), array)


def test_a_blob_reference_out_of_order_is_refused():
    tree, _ = split_blobs(encode_value([np.zeros(1), np.ones(1)]))
    tree.reverse()
    with pytest.raises(CheckpointError, match="expected blob 0"):
        join_blobs(tree, lambda dtype, shape: np.zeros(shape, dtype))


def test_unencodable_type_is_refused():
    with pytest.raises(CheckpointError):
        encode_value(object())


# -- simulation objects ---------------------------------------------------------------
def make_message():
    return Message(
        sender=2,
        kind="jwins-partial-wavelets",
        payload={
            "indices": np.array([1, 5, 9], dtype=np.int64),
            "values": np.array([0.1, -0.2, 0.3]),
            "alpha": 0.37,
            "coefficient_size": 16,
        },
        size=PayloadSize(values_bytes=12, metadata_bytes=3),
        shared_fraction=0.1875,
    )


def test_message_roundtrip(roundtrip):
    message = make_message()
    restored = roundtrip(message)
    assert isinstance(restored, Message)
    assert restored.sender == 2 and restored.kind == message.kind
    assert restored.size == message.size
    assert restored.shared_fraction == message.shared_fraction
    assert np.array_equal(restored.payload["indices"], message.payload["indices"])
    assert np.array_equal(restored.payload["values"], message.payload["values"])


def test_event_roundtrip_preserves_seq_and_payload(roundtrip):
    event = Event(
        time=1.5,
        kind=DELIVER_MESSAGE,
        node_id=4,
        seq=17,
        data={"message": make_message(), "round": 3},
    )
    restored = roundtrip(event)
    assert isinstance(restored, Event)
    assert restored.sort_key == event.sort_key
    assert restored.data["round"] == 3
    assert isinstance(restored.data["message"], Message)


def test_round_context_roundtrip_with_partially_consumed_rng(roundtrip):
    rng = np.random.default_rng(99)
    rng.random(4)
    context = RoundContext(
        round_index=6,
        params_start=np.arange(5, dtype=np.float64),
        params_trained=np.arange(5, dtype=np.float64) + 0.5,
        self_weight=0.4,
        neighbor_weights={3: 0.3, 1: 0.3},
        rng=rng,
        now=2.25,
        node_id=0,
    )
    restored = roundtrip(context)
    assert isinstance(restored, RoundContext)
    assert restored.round_index == 6 and restored.node_id == 0
    assert restored.neighbor_weights == {3: 0.3, 1: 0.3}
    assert list(restored.neighbor_weights) == [3, 1]
    assert np.array_equal(restored.params_trained, context.params_trained)
    # The restored RNG continues exactly where the original stream stands.
    assert np.array_equal(restored.rng.random(6), rng.random(6))
