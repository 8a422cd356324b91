"""Byte-for-byte equivalence of the vectorized codecs against their references.

The vectorized hot path (``pack_bitfields``, the Elias-gamma kernels, the
quantized wire format, the float compressor) must produce *exactly* the bytes
of the original bit-serial implementations, kept as oracles in
``tests/oracles`` — the determinism contract of the metering layer depends on
it.  Every test here asserts payload equality, not just value round trips.
"""

import tracemalloc

import numpy as np
import pytest

from repro.compression.bitstream import pack_bitfields, unpack_bits
from repro.compression.elias import elias_gamma_decode_array, elias_gamma_encode
from repro.compression.float_codec import FloatCodec
from repro.compression.indices import EliasGammaIndexCodec, EncodedIndices
from repro.compression.quantization import QsgdQuantizer, pack_quantized, unpack_quantized
from repro.exceptions import CodecError
from tests.oracles.bitstream import BitWriter
from tests.oracles.codecs import (
    elias_gamma_decode_reference,
    elias_gamma_encode_reference,
    float_compress_reference,
    pack_quantized_reference,
    unpack_quantized_reference,
)


# -- pack_bitfields vs BitWriter --------------------------------------------------------
def bitwriter_pack(values, widths):
    writer = BitWriter()
    for value, width in zip(values, widths):
        writer.write_bits(int(value), int(width))
    return writer.getvalue(), writer.bit_length


def test_pack_bitfields_matches_bitwriter():
    rng = np.random.default_rng(0)
    widths = rng.integers(0, 20, size=500)
    values = np.array([int(rng.integers(0, 1 << w)) if w else 0 for w in widths])
    assert pack_bitfields(values, widths) == bitwriter_pack(values, widths)


@pytest.mark.parametrize("residue", [0, 1, 63])
@pytest.mark.parametrize("seed", range(4))
def test_pack_bitfields_word_boundaries_match_bitwriter(seed, residue):
    # The packer works on 64-bit words: cover zero-width and 63-bit fields, a
    # field that ends exactly on a word boundary, one that straddles the next,
    # and streams whose last word is full, one bit long and one bit short.
    rng = np.random.default_rng(seed)
    widths = rng.choice([0, 1, 7, 31, 32, 33, 62, 63], size=120).tolist()
    widths.append(-sum(widths) % 64)          # ends on a word boundary
    assert sum(widths) % 64 == 0
    widths += [40, 0, 63]                     # bits 40..102 of the next two words
    widths.append((residue - sum(widths)) % 64)
    assert sum(widths) % 64 == residue
    # All-ones fields would carry into their neighbours if any two overlapped.
    values = [
        (1 << w) - 1 if rng.random() < 0.5 else int(rng.integers(0, 1 << w)) if w else 0
        for w in widths
    ]
    assert pack_bitfields(np.array(values), np.array(widths)) == bitwriter_pack(values, widths)


def test_pack_bitfields_straddling_field_worked_example():
    # docs/ARCHITECTURE.md, "Hot-path implementations": 60 + 8 + 4 bits, the
    # middle field 0xAB split 4/4 across the first word boundary.
    payload, bit_length = pack_bitfields(np.array([1, 0xAB, 0xF]), np.array([60, 8, 4]))
    assert (payload.hex(), bit_length) == ("000000000000001abf", 72)
    assert (payload, bit_length) == bitwriter_pack([1, 0xAB, 0xF], [60, 8, 4])


def test_pack_bitfields_all_zero_width_fields():
    assert pack_bitfields(np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int64)) == (b"", 0)


def test_pack_bitfields_empty():
    assert pack_bitfields(np.array([], dtype=np.int64), np.array([], dtype=np.int64)) == (b"", 0)


def test_pack_bitfields_rejects_overflow_and_negative():
    with pytest.raises(CodecError):
        pack_bitfields(np.array([4]), np.array([2]))
    with pytest.raises(CodecError):
        pack_bitfields(np.array([-1]), np.array([8]))
    with pytest.raises(CodecError):
        pack_bitfields(np.array([1]), np.array([64]))
    with pytest.raises(CodecError):
        pack_bitfields(np.array([1]), np.array([0]))
    with pytest.raises(CodecError):
        pack_bitfields(np.array([1]), np.array([-1]))
    with pytest.raises(CodecError):
        pack_bitfields(np.array([1, 2]), np.array([8]))


def test_pack_bitfields_peak_memory_at_a_full_wide_row():
    """Packing a ``wide4_sync`` row (up to 273,420 index gaps) in one call:
    the packer's temporaries are dropped as soon as they are read, 18 bytes
    per field at the peak, against 59 when each lived to the end."""

    fields = 273_420
    rng = np.random.default_rng(6)
    values = rng.geometric(0.4, size=fields).astype(np.int64)
    widths = 2 * np.floor(np.log2(values)).astype(np.int64) + 1
    tracemalloc.start()
    try:
        payload, bit_length = pack_bitfields(values, widths)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bit_length == int(widths.sum())
    assert peak - len(payload) <= 24 * fields


def test_unpack_bits_matches_packbits_layout():
    payload = bytes([0b10110000, 0b01000000])
    assert unpack_bits(payload, 10).tolist() == [1, 0, 1, 1, 0, 0, 0, 0, 0, 1]
    with pytest.raises(CodecError):
        unpack_bits(payload, 17)


# -- Elias gamma ------------------------------------------------------------------------
EDGE_SEQUENCES = [
    [],                                  # empty index list
    [1],                                 # single value
    [1] * 257,                           # run of minimal gaps crossing a byte boundary
    [2**31],                             # single gap with a 32-bit value
    [2**32 - 1],                         # largest value in the coder's domain
    list(range(1, 100)),
    [5, 1, 1, 9, 1000000, 1, 3],
]


@pytest.mark.parametrize("values", EDGE_SEQUENCES, ids=lambda v: f"n={len(v)}")
def test_gamma_encode_matches_reference(values):
    assert elias_gamma_encode(values) == elias_gamma_encode_reference(values)


@pytest.mark.parametrize("values", EDGE_SEQUENCES, ids=lambda v: f"n={len(v)}")
def test_gamma_decode_matches_reference(values):
    payload, bits, count = elias_gamma_encode_reference(values)
    decoded = elias_gamma_decode_array(payload, bits, count)
    assert decoded.tolist() == elias_gamma_decode_reference(payload, bits, count)


@pytest.mark.parametrize("seed", range(5))
def test_gamma_roundtrip_property(seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 2000))
    high = int(rng.choice([2, 10, 1000, 2**20, 2**31]))
    values = rng.integers(1, high + 1, size=size)
    reference = elias_gamma_encode_reference(values)
    assert elias_gamma_encode(values) == reference
    decoded = elias_gamma_decode_array(*reference)
    assert decoded.tolist() == values.tolist()


def test_gamma_decode_error_parity():
    payload, bits, count = elias_gamma_encode([1, 2, 3, 4])
    for args in [(payload, bits, count - 1), (payload, bits, count + 1), (payload, bits - 2, count)]:
        with pytest.raises(CodecError):
            elias_gamma_decode_reference(*args)
        with pytest.raises(CodecError):
            elias_gamma_decode_array(*args)
    with pytest.raises(CodecError):
        elias_gamma_decode_array(payload, len(payload) * 8 + 1, count)


def test_gamma_rejects_nonpositive_like_reference():
    for bad in ([0], [3, 0, 2], [-5]):
        with pytest.raises(CodecError):
            elias_gamma_encode(bad)
        with pytest.raises(CodecError):
            elias_gamma_encode_reference(bad)


#: Values above the coder's domain [1, 2**32 - 1].
ABOVE_DOMAIN = [[2**32, 1, 7], [1, 2**32 + 5], [2**40], [2**62, 3]]


@pytest.mark.parametrize("values", ABOVE_DOMAIN, ids=lambda v: f"max=2**{max(v).bit_length() - 1}")
def test_gamma_refuses_values_above_the_domain_in_one_and_two_dimensions(values):
    message = rf"integers in \[1, 2\*\*32 - 1\], got {max(values)}$"
    with pytest.raises(CodecError, match=message):
        elias_gamma_encode(values)
    with pytest.raises(CodecError, match=message):
        elias_gamma_encode(np.array([[1] * len(values), values], dtype=np.int64))


@pytest.mark.parametrize("shape", ["one-row", "rows"])
def test_index_codec_size_refuses_a_gap_above_the_domain(shape):
    indices = np.array([3, 2**32 + 3], dtype=np.int64)  # second gap is 2**32
    if shape == "rows":
        indices = np.stack([np.array([0, 1]), indices])
    with pytest.raises(CodecError, match=r"\[1, 2\*\*32 - 1\]"):
        EliasGammaIndexCodec().encode(indices, 2**33).size_bytes


def test_gamma_decoder_refuses_a_code_with_more_than_32_value_bits():
    # The oracle still writes 2**32's 65-bit code; the encoder cannot emit it.
    payload, bits, count = elias_gamma_encode_reference([5, 2**32])
    assert elias_gamma_decode_reference(payload, bits, count) == [5, 2**32]
    with pytest.raises(CodecError, match="33 value bits"):
        elias_gamma_decode_array(payload, bits, count)


def _one_code_with_64_zeros() -> tuple[bytes, int]:
    """A 129-bit stream: 64 zeros, the terminating one, 64 value bits."""

    return bytes(8) + b"\x80" + bytes(8), 129


def test_gamma_decoder_raises_codec_error_not_overflow_on_a_malformed_stream():
    payload, bit_length = _one_code_with_64_zeros()
    with pytest.raises(CodecError, match="65 value bits"):
        elias_gamma_decode_array(payload, bit_length, 1)


def test_index_codec_decode_raises_codec_error_on_a_malformed_stream():
    payload, bit_length = _one_code_with_64_zeros()
    encoded = EncodedIndices("elias-gamma", payload, bit_length, 1, 1000)
    with pytest.raises(CodecError):
        EliasGammaIndexCodec().decode(encoded)


# -- index codec edge cases -------------------------------------------------------------
@pytest.mark.parametrize(
    "indices,universe",
    [
        ([], 100),                        # empty index list
        ([0], 1),                         # single index, singleton universe
        ([41], 1000),                     # single index mid-universe
        ([0, 999_999], 1_000_000),        # maximal gap between two indices
        ([999_999], 1_000_000),           # maximal first-index gap
        (list(range(64)), 64),            # dense: every gap is 1
    ],
)
def test_index_codec_edges_roundtrip_and_match_reference(indices, universe):
    codec = EliasGammaIndexCodec()
    encoded = codec.encode(np.array(indices, dtype=np.int64), universe)
    gaps = np.diff(np.sort(np.asarray(indices, dtype=np.int64)), prepend=-1)
    ref_payload, ref_bits, ref_count = elias_gamma_encode_reference(gaps)
    assert encoded.payload == ref_payload
    assert (encoded.bit_length, encoded.count) == (ref_bits, ref_count)
    assert codec.decode(encoded).tolist() == sorted(indices)


@pytest.mark.parametrize("seed", range(3))
def test_index_codec_random_property(seed):
    rng = np.random.default_rng(100 + seed)
    universe = int(rng.choice([50, 10_000, 1_000_000]))
    count = int(rng.integers(1, min(universe, 5000) + 1))
    indices = np.sort(rng.choice(universe, size=count, replace=False))
    codec = EliasGammaIndexCodec()
    encoded = codec.encode(indices, universe)
    gaps = np.diff(indices.astype(np.int64), prepend=-1)
    assert encoded.payload == elias_gamma_encode_reference(gaps)[0]
    assert np.array_equal(codec.decode(encoded), indices)
    # Sorted input is proved valid without sorting; any other order of the
    # same set goes through the full validation and must encode identically.
    assert codec.encode(rng.permutation(indices), universe) == encoded
    assert codec.encode(indices[::-1], universe) == encoded


@pytest.mark.parametrize(
    "indices,universe",
    [
        ([1, 1, 2], 10),                  # duplicate, sorted
        ([2, 1, 1], 10),                  # duplicate, unsorted
        ([-1, 3], 10),                    # negative first index
        ([3, -1], 10),                    # negative index hidden behind a valid first one
        ([0, 10], 10),                    # index == universe, sorted
        ([10, 0], 10),                    # index == universe, unsorted
        ([], 0),                          # universe == 0
        ([0], 0),
        ([0], -5),
        # int64 extremes: the differences wrap around to small positive gaps
        ([0, 2**63 - 1, -(2**63), -1, 0, 1], 10),
    ],
)
def test_index_codec_rejects_invalid_input(indices, universe):
    with pytest.raises(CodecError):
        EliasGammaIndexCodec().encode(np.array(indices, dtype=np.int64), universe)


# -- quantized wire format --------------------------------------------------------------
@pytest.mark.parametrize("bits", [1, 4, 9, 16])
@pytest.mark.parametrize("size", [0, 1, 7, 513])
def test_quantized_pack_matches_reference(bits, size):
    quantizer = QsgdQuantizer(bits=bits, rng=np.random.default_rng(7))
    vector = quantizer.quantize(np.random.default_rng(size).standard_normal(size))
    packed = pack_quantized(vector)
    assert packed == pack_quantized_reference(vector)
    assert len(packed) == vector.size_bytes

    restored_fast = unpack_quantized(packed, bits, size)
    restored_ref = unpack_quantized_reference(packed, bits, size)
    assert np.array_equal(restored_fast.signs, restored_ref.signs)
    assert np.array_equal(restored_fast.levels, restored_ref.levels)
    # signs*levels (all dequantization uses) survives the wire exactly.
    assert np.array_equal(
        restored_fast.signs * restored_fast.levels, vector.signs * vector.levels
    )
    assert np.allclose(quantizer.dequantize(restored_fast), quantizer.dequantize(vector))


def test_quantized_unpack_rejects_truncated_payload():
    quantizer = QsgdQuantizer(bits=4)
    vector = quantizer.quantize(np.ones(16))
    packed = pack_quantized(vector)
    with pytest.raises(CodecError):
        unpack_quantized(packed[:-1], 4, 16)
    with pytest.raises(CodecError):
        unpack_quantized(b"", 4, 0)


@pytest.mark.parametrize("extra", [1, 10])
def test_quantized_unpack_rejects_trailing_bytes(extra):
    # 3 values of 1 + 4 bits take 2 bytes after the 4-byte norm header.
    payload = b"\x00\x00\x80\x3f" + b"\xff" * 2
    assert unpack_quantized(payload, 4, 3).levels.tolist() == [15, 15, 15]
    with pytest.raises(CodecError, match="expected 6"):
        unpack_quantized(payload + b"\xff" * extra, 4, 3)


# -- float codec ------------------------------------------------------------------------
@pytest.mark.parametrize("size", [0, 1, 33, 4096])
def test_float_compress_matches_reference(size):
    values = np.random.default_rng(size).standard_normal(size)
    assert FloatCodec().compress(values) == float_compress_reference(values)
