"""Tests for the general-purpose float codecs (DEFLATE / LZMA baselines)."""

import numpy as np
import pytest

from repro.compression.float_codec import DeflateFloatCodec, LzmaFloatCodec
from repro.exceptions import CodecError


@pytest.fixture
def smooth_payload():
    grid = np.linspace(0.0, 1.0, 4096, dtype=np.float32)
    return np.sin(grid * 12.0).astype(np.float32) * 0.05


@pytest.mark.parametrize("codec_class", [DeflateFloatCodec, LzmaFloatCodec])
def test_lossless_roundtrip(codec_class, smooth_payload):
    codec = codec_class()
    restored = codec.decompress(codec.compress(smooth_payload))
    assert np.array_equal(restored, smooth_payload)


@pytest.mark.parametrize("codec_class", [DeflateFloatCodec, LzmaFloatCodec])
def test_random_data_roundtrip(codec_class):
    values = np.random.default_rng(0).normal(size=777).astype(np.float32)
    codec = codec_class()
    assert np.array_equal(codec.decompress(codec.compress(values)), values)


def test_wrong_codec_rejected(smooth_payload):
    compressed = DeflateFloatCodec().compress(smooth_payload)
    with pytest.raises(CodecError):
        LzmaFloatCodec().decompress(compressed)


def test_invalid_parameters_rejected():
    with pytest.raises(CodecError):
        DeflateFloatCodec(level=0)
    with pytest.raises(CodecError):
        LzmaFloatCodec(preset=10)


def test_empty_payload_roundtrip():
    for codec in (DeflateFloatCodec(), LzmaFloatCodec()):
        restored = codec.decompress(codec.compress(np.zeros(0, dtype=np.float32)))
        assert restored.size == 0
