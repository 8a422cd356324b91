"""Stochastic quantization (QSGD-style).

The paper's background section distinguishes two families of ML compression:
sparsification (what JWINS does) and quantization, which represents each float
with a small number of bits.  This module implements the QSGD quantizer
(Alistarh et al., NeurIPS 2017): values are normalized by the vector's L2 norm
and rounded stochastically to one of ``2^bits - 1`` levels, which keeps the
quantizer unbiased.  It backs the :class:`~repro.baselines.quantized.QuantizedSharingScheme`
baseline and the codec-comparison benchmarks.

The wire form a :class:`QuantizedVector` ships in (``norm`` header + one sign
bit and ``bits`` level bits per value) is realized by
:func:`pack_quantized`/:func:`unpack_quantized`, vectorized through
:func:`~repro.compression.bitstream.pack_bitfields`, and pinned byte for byte
to the bit-serial pair kept as oracles in ``tests/oracles/codecs.py``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.compression.bitstream import pack_bitfields, unpack_bits
from repro.exceptions import CodecError

__all__ = [
    "QuantizedVector",
    "QsgdQuantizer",
    "pack_quantized",
    "unpack_quantized",
]


@dataclass(frozen=True)
class QuantizedVector:
    """A QSGD-quantized vector: norm, signs and integer levels."""

    norm: float
    signs: np.ndarray
    levels: np.ndarray
    bits: int
    size: int

    @property
    def size_bytes(self) -> int:
        """Wire size: norm (4 bytes) + one sign bit and ``bits`` level bits per value."""

        payload_bits = self.size * (1 + self.bits)
        return 4 + (payload_bits + 7) // 8


class QsgdQuantizer:
    """Unbiased stochastic quantizer with ``2^bits - 1`` positive levels."""

    def __init__(self, bits: int = 4, rng: np.random.Generator | None = None) -> None:
        if not 1 <= bits <= 16:
            raise CodecError("bits must be between 1 and 16")
        self.bits = int(bits)
        self.levels = (1 << self.bits) - 1
        self._rng = rng if rng is not None else np.random.default_rng(0)

    @property
    def rng_state(self) -> dict:
        """The stochastic-rounding stream's exact state (for checkpointing)."""

        return self._rng.bit_generator.state

    @rng_state.setter
    def rng_state(self, state: dict) -> None:
        self._rng.bit_generator.state = dict(state)

    def state_dict(self) -> dict:
        """Snapshot the quantizer's mutable state (the rounding RNG stream)."""

        return {"rng_state": self.rng_state}

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""

        self.rng_state = state["rng_state"]

    def quantize(self, values: np.ndarray) -> QuantizedVector:
        """Quantize ``values``; the expectation of dequantize(quantize(x)) is x."""

        data = np.asarray(values, dtype=np.float64).ravel()
        norm = float(np.linalg.norm(data))
        if norm == 0.0:
            return QuantizedVector(
                norm=0.0,
                signs=np.zeros(data.size, dtype=np.int8),
                levels=np.zeros(data.size, dtype=np.int32),
                bits=self.bits,
                size=data.size,
            )
        scaled = np.abs(data) / norm * self.levels
        floor = np.floor(scaled)
        probability_up = scaled - floor
        rounded = floor + (self._rng.random(data.size) < probability_up)
        return QuantizedVector(
            norm=norm,
            signs=np.sign(data).astype(np.int8),
            levels=rounded.astype(np.int32),
            bits=self.bits,
            size=data.size,
        )

    def dequantize(self, quantized: QuantizedVector) -> np.ndarray:
        """Reconstruct the (lossy) float vector from its quantized form."""

        if quantized.bits != self.bits:
            raise CodecError(
                f"vector was quantized with {quantized.bits} bits, quantizer uses {self.bits}"
            )
        if quantized.size == 0:
            return np.zeros(0, dtype=np.float64)
        levels = (1 << quantized.bits) - 1
        return quantized.norm * quantized.signs * quantized.levels / levels


# -- wire (de)serialization -------------------------------------------------------------
#
# Layout: 4-byte little-endian float32 norm, then for each value one sign bit
# (1 = negative) followed by ``bits`` level bits, MSB first, final byte
# zero-padded.  This is exactly the :attr:`QuantizedVector.size_bytes`
# accounting the byte meter reports.


def pack_quantized(quantized: QuantizedVector) -> bytes:
    """Serialize a :class:`QuantizedVector` to its wire bytes (vectorized).

    Zero values carry a zero sign bit (their sign never influences
    dequantization), so packing is deterministic regardless of how
    ``np.sign`` labelled them.
    """

    signs = np.asarray(quantized.signs, dtype=np.int64)
    levels = np.asarray(quantized.levels, dtype=np.int64)
    if signs.size != quantized.size or levels.size != quantized.size:
        raise CodecError("QuantizedVector signs/levels do not match its size")
    if np.any(levels >> quantized.bits != 0) or np.any(levels < 0):
        raise CodecError(f"levels do not fit in {quantized.bits} bits")
    header = struct.pack("<f", quantized.norm)
    if quantized.size == 0:
        return header
    # Interleave [sign, level, sign, level, ...] as alternating 1- and
    # ``bits``-wide fields and pack the whole stream in one shot.
    fields = np.empty(2 * quantized.size, dtype=np.int64)
    fields[0::2] = (signs < 0).astype(np.int64)
    fields[1::2] = levels
    widths = np.empty(2 * quantized.size, dtype=np.int64)
    widths[0::2] = 1
    widths[1::2] = quantized.bits
    payload, _ = pack_bitfields(fields, widths)
    return header + payload


def unpack_quantized(payload: bytes, bits: int, size: int) -> QuantizedVector:
    """Rebuild a :class:`QuantizedVector` from its wire bytes (vectorized).

    ``bits`` and ``size`` travel out of band (the byte meter already accounts
    for them in the framing header).  Restored signs are ``±1``; a packed zero
    value therefore comes back with sign ``+1`` instead of ``0``, which leaves
    ``signs * levels`` — all dequantization uses — unchanged.  A payload of
    any length but ``4 + ceil(size * (1 + bits) / 8)`` bytes is refused.
    """

    if not 1 <= bits <= 16:
        raise CodecError("bits must be between 1 and 16")
    if size < 0:
        raise CodecError("size must be non-negative")
    expected = 4 + (size * (1 + bits) + 7) // 8
    if len(payload) != expected:
        raise CodecError(f"quantized payload has {len(payload)} bytes, expected {expected}")
    (norm,) = struct.unpack("<f", payload[:4])
    stream = unpack_bits(payload[4:], size * (1 + bits))
    matrix = stream.reshape(size, 1 + bits).astype(np.int64)
    signs = np.where(matrix[:, 0] == 1, -1, 1).astype(np.int8)
    weights = np.int64(1) << np.arange(bits - 1, -1, -1, dtype=np.int64)
    levels = (matrix[:, 1:] * weights).sum(axis=1).astype(np.int32)
    return QuantizedVector(norm=float(norm), signs=signs, levels=levels, bits=bits, size=size)
