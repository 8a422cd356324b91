"""Tests for float payload codecs."""

import zlib

import numpy as np
import pytest

from repro.compression.float_codec import (
    CompressedFloats,
    DeflateFloatCodec,
    FloatCodec,
    RawFloatCodec,
)
from repro.datasets import make_cifar10_task
from repro.datasets.base import iterate_minibatches
from repro.exceptions import CodecError
from repro.nn.module import get_flat_parameters
from repro.nn.optim import SGD
from repro.sparsification.topk import topk_indices
from repro.utils.rng import derive_rng
from repro.wavelets.transform import WaveletTransform


def _traffic() -> dict[str, np.ndarray]:
    """What the schemes send: a trained conv net, dense and as a JWINS message.

    The message holds the wavelet coefficients of the trained model at the
    top 10% of positions ranked by the change since initialisation, which is
    how Algorithm 1 picks them -- values that are not neighbours in the model.
    """

    task = make_cifar10_task(seed=8, train_samples=96, test_samples=16, noise=1.0)
    model = task.make_model(derive_rng(8, "model"))
    initial = get_flat_parameters(model).copy()
    loss = task.make_loss()
    optimizer = SGD(model.parameters(), lr=0.05)
    for inputs, targets in iterate_minibatches(task.train, 16, derive_rng(8, "batches")):
        model.zero_grad()
        loss.forward(model.forward(inputs), targets)
        model.backward(loss.backward())
        optimizer.step()
    trained = get_flat_parameters(model)
    transform = WaveletTransform(trained.size)
    change = transform.forward(trained - initial)
    shared = topk_indices(change, trained.size // 10)
    return {"dense": trained, "top-10% wavelet message": transform.forward(trained)[shared]}


def test_lossless_roundtrip_exact_at_float32():
    rng = np.random.default_rng(0)
    values = rng.normal(scale=0.03, size=4096).astype(np.float32)
    codec = FloatCodec()
    restored = codec.decompress(codec.compress(values))
    assert np.array_equal(restored, values)


def test_smaller_than_raw_and_deflate_on_the_traffic_schemes_send():
    for name, values in _traffic().items():
        size = FloatCodec().compress(values).size_bytes
        assert size < RawFloatCodec().compress(values).size_bytes, name
        assert size <= DeflateFloatCodec().compress(values).size_bytes, name


def test_size_is_header_plus_three_raw_planes_plus_one_deflate_stream():
    values = np.random.default_rng(3).normal(scale=0.03, size=1000).astype("<f4")
    compressed = FloatCodec().compress(values)
    octets = values.view(np.uint8).reshape(-1, 4)
    stream = zlib.compress(octets[:, 3].tobytes(), 1)
    assert compressed.payload == octets[:, :3].tobytes() + stream
    assert compressed.size_bytes == 4 + 3 * 1000 + len(stream)


@pytest.mark.parametrize(
    "values",
    [
        np.random.default_rng(4).normal(size=64),  # float64 in, float32 out
        np.random.default_rng(5).normal(size=128).astype(np.float32)[::3],
        np.random.default_rng(6).normal(size=(6, 10)).astype(np.float32).T,
        np.zeros((0, 4)),
    ],
    ids=["float64", "non-contiguous", "2-d-transposed", "empty-2-d"],
)
def test_roundtrip_flattens_any_input_in_c_order(values):
    codec = FloatCodec()
    restored = codec.decompress(codec.compress(values))
    assert restored.dtype == np.float32
    assert np.array_equal(restored, np.asarray(values, dtype=np.float32).ravel())


def test_empty_payload_roundtrip():
    codec = FloatCodec()
    restored = codec.decompress(codec.compress(np.zeros(0, dtype=np.float32)))
    assert restored.size == 0


def test_single_value_roundtrip():
    codec = FloatCodec()
    value = np.array([3.14159], dtype=np.float32)
    assert np.array_equal(codec.decompress(codec.compress(value)), value)


def test_raw_codec_size_is_four_bytes_per_value():
    codec = RawFloatCodec()
    compressed = codec.compress(np.ones(100))
    assert compressed.size_bytes == 400 + 4
    assert np.array_equal(codec.decompress(compressed), np.ones(100, dtype=np.float32))


@pytest.mark.parametrize("codec", [FloatCodec(), RawFloatCodec()], ids=["exp-deflate", "raw32"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mutating_the_values_after_compress_changes_no_payload(codec, dtype):
    """float32 input is the trap: ``np.asarray`` would hand back the caller's array."""

    values = np.random.default_rng(9).normal(size=500).astype(dtype)
    untouched = codec.compress(values.copy())
    compressed = codec.compress(values)  # sized now, packed below
    values[:] = 0.0
    assert compressed.payload == untouched.payload
    assert compressed.size_bytes == len(untouched.payload) + 4


def test_wrong_codec_rejected():
    values = np.ones(8, dtype=np.float32)
    compressed = RawFloatCodec().compress(values)
    with pytest.raises(CodecError):
        FloatCodec().decompress(compressed)


def _corruptions() -> dict[str, bytes]:
    good = FloatCodec().compress(np.random.default_rng(2).normal(size=40))
    mantissas, stream = good.payload[:120], good.payload[120:]
    return {
        "shorter-than-mantissa-planes": good.payload[:100],
        "inflates-to-wrong-count": mantissas + zlib.compress(bytes(39), 1),
        "trailing-garbage": good.payload + b"\x00",
        "not-a-deflate-stream": mantissas + bytes(reversed(stream)),
    }


_CORRUPTIONS = _corruptions()


@pytest.mark.parametrize("payload", _CORRUPTIONS.values(), ids=_CORRUPTIONS.keys())
def test_corrupt_payload_raises_codec_error(payload):
    with pytest.raises(CodecError):
        FloatCodec().decompress(CompressedFloats(FloatCodec.name, payload, 40))


def test_special_values_preserved():
    values = np.array([0.0, -0.0, np.inf, -np.inf, 1e-38, -1e38], dtype=np.float32)
    codec = FloatCodec()
    restored = codec.decompress(codec.compress(values))
    assert np.array_equal(np.isinf(restored), np.isinf(values))
    assert np.array_equal(restored.view(np.uint32), values.view(np.uint32))
