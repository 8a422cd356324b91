"""Property-based tests for the compression codecs."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest

from repro.compression.elias import elias_gamma_decode_array, elias_gamma_encode
from repro.compression.float_codec import FloatCodec
from repro.compression.indices import EliasGammaIndexCodec, RawIndexCodec
from repro.exceptions import CodecError
from tests.oracles.codecs import elias_gamma_encode_reference


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.integers(min_value=1, max_value=2**32 - 1), max_size=200))
def test_elias_gamma_roundtrip(values):
    payload, bits, count = elias_gamma_encode(values)
    assert elias_gamma_decode_array(payload, bits, count).tolist() == values
    assert bits == sum(2 * v.bit_length() - 1 for v in values)
    assert len(payload) == (bits + 7) // 8


#: Index gaps in the coder's domain: runs of 1, ordinary gaps and gaps up to
#: its top, 2**32 - 1, whose 63-bit code is the widest the int64 kernels shift.
GAPS = st.one_of(
    st.just(1),
    st.integers(min_value=1, max_value=2**20),
    st.integers(min_value=2**32 - 2**12, max_value=2**32 - 1),
)
#: Gaps above the domain, which the codec refuses: past the int64 kernels
#: (>= 2**32), both sides of 2**53 (where float64 stops holding every integer)
#: and 2**k - 1 above it, which float64 rounds up to the next power of two.
ABOVE_DOMAIN_GAPS = st.one_of(
    st.integers(min_value=2**32, max_value=2**33),
    st.integers(min_value=2**53 - 2**12, max_value=2**53 + 2**12),
    st.integers(min_value=54, max_value=59).map(lambda bits: 2**bits - 1),
    st.integers(min_value=2**53, max_value=2**59),
)


@st.composite
def gap_matrices(draw, min_count=0):
    """An ``(n, k)`` matrix of index gaps; every row sums below 2**62."""

    count = draw(st.integers(min_value=min_count, max_value=6))
    rows = draw(st.integers(min_value=1, max_value=4))
    row = st.lists(GAPS, min_size=count, max_size=count)
    return np.array(draw(st.lists(row, min_size=rows, max_size=rows)), dtype=np.int64).reshape(
        rows, count
    )


@settings(max_examples=80, deadline=None)
@given(gaps=gap_matrices())
@example(gaps=np.array([[2**32 - 1, 1], [2**31, 2**32 - 1]], dtype=np.int64))
@example(gaps=np.zeros((3, 0), dtype=np.int64))
def test_gamma_index_size_is_exact_before_the_payload_is_packed(gaps):
    """``size_bytes`` (arithmetic at encode time) is the packed stream's length."""

    indices = np.cumsum(gaps, axis=1) - 1
    universe = int(indices.max(initial=0)) + 1
    codec = EliasGammaIndexCodec()
    encoded = codec.encode(indices, universe)
    sizes = [row.size_bytes for row in encoded]  # read before anything is packed
    for row, row_gaps, size, row_indices in zip(encoded, gaps, sizes, indices):
        payload, bit_length, count = elias_gamma_encode_reference(row_gaps)
        assert size == len(row.payload) + 12 == (bit_length + 7) // 8 + 12
        assert (row.payload, row.bit_length, row.count) == (payload, bit_length, count)
        assert codec.encode(row_indices, universe) == row
        assert np.array_equal(codec.decode(row), row_indices)


@settings(max_examples=60, deadline=None)
@given(gaps=gap_matrices(min_count=1), bad=ABOVE_DOMAIN_GAPS, data=st.data())
@example(gaps=np.array([[1, 1], [1, 1]]), bad=2**54 - 1, data=None)
def test_gamma_index_codec_refuses_a_gap_above_the_domain(gaps, bad, data):
    """One gap >= 2**32 anywhere: the stacked and the one-row encode both refuse."""

    row, column = (0, 0) if data is None else data.draw(
        st.tuples(st.integers(0, gaps.shape[0] - 1), st.integers(0, gaps.shape[1] - 1))
    )
    gaps[row, column] = bad
    indices = np.cumsum(gaps, axis=1) - 1
    universe = int(indices.max()) + 1
    codec = EliasGammaIndexCodec()
    with pytest.raises(CodecError, match=rf"got {bad}$"):
        codec.encode(indices, universe)
    with pytest.raises(CodecError, match=rf"got {bad}$"):
        codec.encode(indices[row], universe).size_bytes


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
