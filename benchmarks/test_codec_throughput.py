"""Throughput benchmarks pinning the vectorized codec/wavelet speedup.

JWINS' per-round cost is dominated by the wavelet transform and the
compression of the selected coefficients; this suite measures the vectorized
hot path against the bit-serial ``*_reference`` oracles of ``tests/oracles`` on a
100k-coefficient vector (the scale of the paper's models) and asserts both
byte-identity and the speedup the optimization PR promised: at least 5x on
Elias-gamma encoding.  The encode test also times the index codec's full
encode — ``EliasGammaIndexCodec.encode(indices, universe).payload``, index
validation included — next to the bare gap encoder, and the size-only call the
schemes really make (``.size_bytes``, nothing packed), which must stay at
least 2x faster than the full encode.

Set ``CODEC_THROUGHPUT_SMOKE=1`` to shrink the vector ~10x (CI smoke mode):
the assertions still run, the wall-clock cost drops to well under a second.
"""

from __future__ import annotations

import os
import time

import numpy as np

from benchmarks.conftest import merge_json_metrics, save_report
from repro.compression.elias import elias_gamma_decode_array, elias_gamma_encode
from repro.compression.indices import EliasGammaIndexCodec
from repro.compression.quantization import QsgdQuantizer, pack_quantized
from repro.wavelets.dwt import dwt_single, idwt_single
from tests.oracles.codecs import (
    elias_gamma_decode_reference,
    elias_gamma_encode_reference,
    pack_quantized_reference,
)
from tests.oracles.dwt import dwt_single_reference, idwt_single_reference

SMOKE = bool(os.environ.get("CODEC_THROUGHPUT_SMOKE"))
#: Number of selected coefficients (the acceptance criterion pins 100k).
NUM_COEFFICIENTS = 10_000 if SMOKE else 100_000
#: Coefficient universe the indices are drawn from (sparsity ~ 10%).
UNIVERSE = 10 * NUM_COEFFICIENTS


def _indices() -> np.ndarray:
    """A sorted top-k style index set, as the sparsifier hands it to the codec."""

    rng = np.random.default_rng(42)
    return np.sort(rng.choice(UNIVERSE, size=NUM_COEFFICIENTS, replace=False)).astype(np.int64)


def _gaps() -> np.ndarray:
    """Delta-encoded sorted index gaps, as the JWINS metadata codec sees them."""

    return np.diff(_indices(), prepend=-1)


def _time(fn, repeats: int = 1) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_elias_encode_throughput(benchmark):
    gaps = _gaps()
    fast = benchmark.pedantic(lambda: elias_gamma_encode(gaps), rounds=3, iterations=1)
    fast_seconds = _time(lambda: elias_gamma_encode(gaps), repeats=3)
    reference_seconds = _time(lambda: elias_gamma_encode_reference(gaps))
    reference = elias_gamma_encode_reference(gaps)
    assert fast == reference

    # The whole metadata encode: validation of the index set, differencing,
    # and the gap encoder above when the payload is read.  The schemes read
    # only the size, which the codec computes without packing a bit.
    indices, codec = _indices(), EliasGammaIndexCodec()
    encoded = codec.encode(indices, UNIVERSE)
    assert encoded.size_bytes == len(reference[0]) + 12
    assert (encoded.payload, encoded.bit_length, encoded.count) == reference
    index_seconds = _time(lambda: codec.encode(indices, UNIVERSE).payload, repeats=5)
    size_seconds = _time(lambda: codec.encode(indices, UNIVERSE).size_bytes, repeats=5)

    speedup = reference_seconds / fast_seconds
    throughput = NUM_COEFFICIENTS / fast_seconds / 1e6
    index_throughput = NUM_COEFFICIENTS / index_seconds / 1e6
    size_speedup = index_seconds / size_seconds
    save_report(
        "codec_throughput_encode",
        f"elias-gamma encode, {NUM_COEFFICIENTS} coefficients"
        f"{' (smoke)' if SMOKE else ''}\n"
        f"vectorized: {fast_seconds * 1e3:8.2f} ms  ({throughput:.1f} M values/s)\n"
        f"reference:  {reference_seconds * 1e3:8.2f} ms\n"
        f"speedup:    {speedup:8.1f}x (acceptance floor: 5x)\n"
        f"index codec (validate + diff + encode + pack): {index_seconds * 1e3:8.2f} ms"
        f"  ({index_throughput:.1f} M indices/s)\n"
        f"index codec, size only (what the schemes read): {size_seconds * 1e3:8.2f} ms"
        f"  ({size_speedup:.1f}x faster; floor: 2x)",
    )
    merge_json_metrics(
        "codec",
        "index_encode",
        {
            "size": NUM_COEFFICIENTS,
            "smoke": SMOKE,
            "fast_seconds": index_seconds,
            "reference_seconds": reference_seconds,
            "speedup": reference_seconds / index_seconds,
            "throughput_mvalues_per_s": index_throughput,
            "size_only_seconds": size_seconds,
            "size_only_speedup": size_speedup,
        },
    )
    merge_json_metrics(
        "codec",
        "elias_encode",
        {
            "size": NUM_COEFFICIENTS,
            "smoke": SMOKE,
            "fast_seconds": fast_seconds,
            "reference_seconds": reference_seconds,
            "speedup": speedup,
            "throughput_mvalues_per_s": throughput,
        },
    )
    assert speedup >= 5.0, f"vectorized encode only {speedup:.1f}x faster"
    # Packing on encode instead of on first read would close this gap.
    assert size_speedup >= 2.0, f"size-only index encode only {size_speedup:.1f}x faster"


def test_elias_decode_throughput(benchmark):
    gaps = _gaps()
    payload, bit_length, count = elias_gamma_encode(gaps)
    fast = benchmark.pedantic(
        lambda: elias_gamma_decode_array(payload, bit_length, count), rounds=3, iterations=1
    )
    assert fast.tolist() == elias_gamma_decode_reference(payload, bit_length, count)

    fast_seconds = _time(lambda: elias_gamma_decode_array(payload, bit_length, count), repeats=3)
    reference_seconds = _time(lambda: elias_gamma_decode_reference(payload, bit_length, count))
    speedup = reference_seconds / fast_seconds
    save_report(
        "codec_throughput_decode",
        f"elias-gamma decode, {count} coefficients{' (smoke)' if SMOKE else ''}\n"
        f"vectorized: {fast_seconds * 1e3:8.2f} ms\n"
        f"reference:  {reference_seconds * 1e3:8.2f} ms\n"
        f"speedup:    {speedup:8.1f}x",
    )
    merge_json_metrics(
        "codec",
        "elias_decode",
        {
            "size": int(count),
            "smoke": SMOKE,
            "fast_seconds": fast_seconds,
            "reference_seconds": reference_seconds,
            "speedup": speedup,
            "throughput_mvalues_per_s": count / fast_seconds / 1e6,
        },
    )
    assert speedup >= 2.0, f"vectorized decode only {speedup:.1f}x faster"


def test_quantized_pack_throughput(benchmark):
    rng = np.random.default_rng(1)
    vector = QsgdQuantizer(bits=4, rng=rng).quantize(rng.standard_normal(NUM_COEFFICIENTS))
    fast = benchmark.pedantic(lambda: pack_quantized(vector), rounds=3, iterations=1)
    assert fast == pack_quantized_reference(vector)

    fast_seconds = _time(lambda: pack_quantized(vector), repeats=3)
    reference_seconds = _time(lambda: pack_quantized_reference(vector))
    speedup = reference_seconds / fast_seconds
    save_report(
        "codec_throughput_quantized",
        f"qsgd pack, {NUM_COEFFICIENTS} values @4 bits{' (smoke)' if SMOKE else ''}\n"
        f"vectorized: {fast_seconds * 1e3:8.2f} ms\n"
        f"reference:  {reference_seconds * 1e3:8.2f} ms\n"
        f"speedup:    {speedup:8.1f}x",
    )
    merge_json_metrics(
        "codec",
        "qsgd_pack",
        {
            "size": NUM_COEFFICIENTS,
            "smoke": SMOKE,
            "fast_seconds": fast_seconds,
            "reference_seconds": reference_seconds,
            "speedup": speedup,
            "throughput_mvalues_per_s": NUM_COEFFICIENTS / fast_seconds / 1e6,
        },
    )
    assert speedup >= 5.0, f"vectorized pack only {speedup:.1f}x faster"


def test_dwt_roundtrip_throughput(benchmark):
    rng = np.random.default_rng(2)
    signal = rng.standard_normal(UNIVERSE)

    def roundtrip():
        approx, detail, padded = dwt_single(signal, "sym2")
        return idwt_single(approx, detail, "sym2", padded)

    restored = benchmark.pedantic(roundtrip, rounds=3, iterations=1)
    approx, detail, padded = dwt_single_reference(signal, "sym2")
    reference_restored = idwt_single_reference(approx, detail, "sym2", padded)
    assert restored.tobytes() == reference_restored.tobytes()

    fast_seconds = _time(roundtrip, repeats=3)

    def reference_roundtrip():
        a, d, p = dwt_single_reference(signal, "sym2")
        return idwt_single_reference(a, d, "sym2", p)

    reference_seconds = _time(reference_roundtrip)
    speedup = reference_seconds / fast_seconds
    save_report(
        "codec_throughput_dwt",
        f"sym2 dwt+idwt, {UNIVERSE} samples{' (smoke)' if SMOKE else ''}\n"
        f"vectorized: {fast_seconds * 1e3:8.2f} ms\n"
        f"reference:  {reference_seconds * 1e3:8.2f} ms\n"
        f"speedup:    {speedup:8.1f}x",
    )
    merge_json_metrics(
        "codec",
        "dwt_roundtrip",
        {
            "size": UNIVERSE,
            "smoke": SMOKE,
            "fast_seconds": fast_seconds,
            "reference_seconds": reference_seconds,
            "speedup": speedup,
            "throughput_mvalues_per_s": UNIVERSE / fast_seconds / 1e6,
        },
    )
    # The reference was already numpy-vectorized per tap; the win here is
    # reading each tap from a contiguous phase slice instead of a modulo
    # gather (analysis) or an add.at scatter (synthesis).
    assert speedup >= 1.2, f"vectorized DWT only {speedup:.2f}x faster"
