"""Design-choice ablation: parameter-payload compression codecs.

Section IV-B e of the paper: "we empirically assessed multiple compression
algorithms ... We chose Fpzip since it performed the best across our
experiments."  This benchmark shows the same choice made for this system's
traffic: the shipped :class:`FloatCodec` (mantissa bytes raw, sign/exponent
bytes through DEFLATE-1) against the design it replaced (XOR predictor, four
byte planes, DEFLATE-6 -- kept here only), plain DEFLATE, LZMA, raw 32-bit
floats and QSGD quantization, on a trained model's dense parameter vector and
on a JWINS message (its top-10% wavelet coefficients), reporting compressed
size (and, for the lossy quantizer, the reconstruction error).
"""

from __future__ import annotations

import zlib

import numpy as np

from benchmarks.conftest import save_report
from repro.compression.float_codec import (
    CompressedFloats,
    DeflateFloatCodec,
    FloatCodec,
    LzmaFloatCodec,
    RawFloatCodec,
)
from repro.compression.quantization import QsgdQuantizer
from repro.datasets import make_cifar10_task
from repro.datasets.base import iterate_minibatches
from repro.evaluation import format_table
from repro.nn.module import get_flat_parameters
from repro.nn.optim import SGD
from repro.sparsification.topk import topk_indices
from repro.utils.rng import derive_rng
from repro.wavelets.transform import WaveletTransform

SHIPPED = "mantissa raw + exponent deflate-1 (shipped)"
RETIRED = "xor + 4 byte planes + deflate-6 (retired)"
LOSSLESS = (SHIPPED, RETIRED, "deflate", "lzma")


class _RetiredXorPlanesCodec:
    """The codec ``FloatCodec`` was until PR 22; lives here so the table shows why it went."""

    def compress(self, values: np.ndarray) -> CompressedFloats:
        bits = np.asarray(values, dtype="<f4").ravel().view(np.uint32)
        residual = bits.copy()
        residual[1:] ^= bits[:-1]
        planes = residual.view(np.uint8).reshape(-1, 4).T.tobytes()
        return CompressedFloats("retired", zlib.compress(planes, 6), bits.size)

    def decompress(self, compressed: CompressedFloats) -> np.ndarray:
        planes = np.frombuffer(zlib.decompress(compressed.payload), dtype=np.uint8)
        residual = np.ascontiguousarray(planes.reshape(4, -1).T).reshape(-1).view(np.uint32)
        return np.bitwise_xor.accumulate(residual).view("<f4")


def _payloads() -> dict[str, np.ndarray]:
    """A trained model's dense vector and the JWINS message cut from it.

    The message holds the wavelet coefficients at the top 10% of positions
    ranked by the change since initialisation, as Algorithm 1 ranks them.
    """

    task = make_cifar10_task(seed=8, train_samples=192, test_samples=48, noise=1.0)
    model = task.make_model(derive_rng(8, "model"))
    initial = get_flat_parameters(model).copy()
    loss = task.make_loss()
    optimizer = SGD(model.parameters(), lr=0.05)
    batch_rng = derive_rng(8, "batches")
    for _ in range(2):
        for inputs, targets in iterate_minibatches(task.train, 16, batch_rng):
            model.zero_grad()
            loss.forward(model.forward(inputs), targets)
            model.backward(loss.backward())
            optimizer.step()
    trained = get_flat_parameters(model)
    transform = WaveletTransform(trained.size)
    shared = topk_indices(transform.forward(trained - initial), trained.size // 10)
    return {
        f"dense vector, {trained.size} parameters": trained,
        f"JWINS message, top {shared.size} wavelet coefficients": transform.forward(trained)[shared],
    }


def _measure(values: np.ndarray):
    sizes: dict[str, int] = {}
    errors: dict[str, float] = {}
    exact = values.astype(np.float32)
    for name, codec in [
        ("raw float32", RawFloatCodec()),
        (SHIPPED, FloatCodec()),
        (RETIRED, _RetiredXorPlanesCodec()),
        ("deflate", DeflateFloatCodec()),
        ("lzma", LzmaFloatCodec()),
    ]:
        compressed = codec.compress(values)
        restored = codec.decompress(compressed)
        sizes[name] = compressed.size_bytes
        if name in LOSSLESS:  # bit for bit, not merely numerically equal
            assert np.array_equal(restored.view(np.uint32), exact.view(np.uint32)), name
        errors[name] = float(np.max(np.abs(restored - exact)))
    quantizer = QsgdQuantizer(bits=4, rng=derive_rng(8, "quantizer"))
    quantized = quantizer.quantize(values)
    sizes["qsgd 4-bit (lossy)"] = quantized.size_bytes
    errors["qsgd 4-bit (lossy)"] = float(np.max(np.abs(quantizer.dequantize(quantized) - values)))
    return sizes, errors


def _run():
    return {label: _measure(values) for label, values in _payloads().items()}


def test_ablation_float_codecs(benchmark):
    measured = benchmark.pedantic(_run, rounds=1, iterations=1)

    report = ""
    for label, (sizes, errors) in measured.items():
        raw = sizes["raw float32"]
        rows = [
            [name, f"{size / 1024:.1f} KiB", f"{100 * size / raw:.1f}%", f"{errors[name]:.2e}"]
            for name, size in sorted(sizes.items(), key=lambda item: item[1])
        ]
        report += f"{label}\n"
        report += format_table(["codec", "compressed size", "vs raw", "max abs error"], rows)
        report += "\n\n"

        # Lossless codecs are exact at float32 precision.
        for name in LOSSLESS:
            assert errors[name] == 0.0
        # The shipped codec is the smallest cheap one: never behind the design it
        # replaced, nor (beyond framing noise) behind plain DEFLATE, and below raw.
        assert sizes[SHIPPED] <= sizes[RETIRED], label
        assert sizes[SHIPPED] <= sizes["deflate"] * 1.02, label
        assert sizes[SHIPPED] < raw, label
        # Aggressive quantization is much smaller but lossy.
        assert sizes["qsgd 4-bit (lossy)"] < 0.3 * raw
        assert errors["qsgd 4-bit (lossy)"] > 0.0
    report += "paper: Fpzip chosen as the best general-purpose float compressor"
    save_report("ablation_float_codecs", report)
