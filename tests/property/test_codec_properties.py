"""Property-based tests for the compression codecs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.elias import elias_gamma_decode, elias_gamma_encode, gamma_code_length
from repro.compression.float_codec import FloatCodec
from repro.compression.indices import EliasGammaIndexCodec, RawIndexCodec


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.integers(min_value=1, max_value=2**40), max_size=200))
def test_elias_gamma_roundtrip(values):
    payload, bits, count = elias_gamma_encode(values)
    assert elias_gamma_decode(payload, bits, count) == values
    assert bits == sum(gamma_code_length(v) for v in values)
    assert len(payload) == (bits + 7) // 8


@settings(max_examples=60, deadline=None)
@given(
    universe=st.integers(min_value=1, max_value=5000),
    seed=st.integers(min_value=0, max_value=2**16),
    fraction=st.floats(min_value=0.01, max_value=1.0),
)
def test_index_codecs_roundtrip(universe, seed, fraction):
    rng = np.random.default_rng(seed)
    count = max(1, min(universe, int(fraction * universe)))
    indices = np.sort(rng.choice(universe, size=count, replace=False))
    for codec in (EliasGammaIndexCodec(), RawIndexCodec()):
        encoded = codec.encode(indices, universe)
        assert np.array_equal(codec.decode(encoded), indices)


@settings(max_examples=100, deadline=None)
@given(words=st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=300))
def test_float_codec_lossless_on_every_bit_pattern(words):
    """NaN payloads, -0.0, subnormals and infinities all come back bit for bit."""

    array = np.asarray(words, dtype=np.uint32).view(np.float32)
    codec = FloatCodec()
    restored = codec.decompress(codec.compress(array))
    assert np.array_equal(restored.view(np.uint32), array.view(np.uint32))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    size=st.integers(min_value=0, max_value=20000),
)
def test_float_codec_worst_case_is_raw_plus_the_deflate_framing(seed, size):
    """On incompressible high bytes DEFLATE falls back to stored blocks."""

    words = np.random.default_rng(seed).integers(0, 2**32, size=size, dtype=np.uint32)
    compressed = FloatCodec().compress(words.view(np.float32))
    assert compressed.size_bytes <= 4 * size + 4 + 16 + size // 1000
