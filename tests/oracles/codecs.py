"""Bit-serial and scalar-loop references for the vectorized codecs."""

import struct
import zlib
from typing import Iterable

import numpy as np

from repro.compression.float_codec import _EXPONENT_PLANE_LEVEL, CompressedFloats, FloatCodec
from repro.compression.quantization import QuantizedVector
from repro.exceptions import CodecError
from tests.oracles.bitstream import BitReader, BitWriter


def _encode_single(writer: BitWriter, value: int) -> None:
    if value < 1:
        raise CodecError(f"Elias gamma requires positive integers, got {value}")
    bits = int(value).bit_length()
    writer.write_unary(bits - 1)
    # The leading one bit acted as the unary terminator; emit the remainder.
    writer.write_bits(value - (1 << (bits - 1)), bits - 1)


def elias_gamma_encode_reference(values: Iterable[int] | np.ndarray) -> tuple[bytes, int, int]:
    """Bit-serial reference for the 1-D ``elias_gamma_encode``."""

    writer = BitWriter()
    count = 0
    for value in np.asarray(list(values), dtype=np.int64):
        _encode_single(writer, int(value))
        count += 1
    return writer.getvalue(), writer.bit_length, count


def elias_gamma_decode_reference(payload: bytes, bit_length: int, count: int) -> list[int]:
    """Bit-serial reference for ``elias_gamma_decode_array``."""

    reader = BitReader(payload, bit_length)
    values: list[int] = []
    for _ in range(count):
        zeros = reader.read_unary()
        remainder = reader.read_bits(zeros)
        values.append((1 << zeros) | remainder)
    if reader.remaining:
        raise CodecError(f"{reader.remaining} unread bits left after decoding {count} values")
    return values


def pack_quantized_reference(quantized: QuantizedVector) -> bytes:
    """Bit-serial reference for ``pack_quantized``."""

    writer = BitWriter()
    for sign, level in zip(quantized.signs, quantized.levels):
        writer.write_bit(1 if sign < 0 else 0)
        writer.write_bits(int(level), quantized.bits)
    return struct.pack("<f", quantized.norm) + writer.getvalue()


def unpack_quantized_reference(payload: bytes, bits: int, size: int) -> QuantizedVector:
    """Bit-serial reference for ``unpack_quantized``."""

    if len(payload) < 4:
        raise CodecError("quantized payload is missing its norm header")
    (norm,) = struct.unpack("<f", payload[:4])
    reader = BitReader(payload[4:], size * (1 + bits))
    signs = np.empty(size, dtype=np.int8)
    levels = np.empty(size, dtype=np.int32)
    for i in range(size):
        signs[i] = -1 if reader.read_bit() else 1
        levels[i] = reader.read_bits(bits)
    return QuantizedVector(norm=float(norm), signs=signs, levels=levels, bits=bits, size=size)


def float_compress_reference(values: np.ndarray) -> CompressedFloats:
    """Scalar reference for ``FloatCodec.compress``: shifts in a loop, no vector ops."""

    words = [int(w) for w in np.asarray(values, dtype=np.float32).ravel().view(np.uint32)]
    mantissas, exponents = bytearray(), bytearray()
    for word in words:
        mantissas += bytes(((word >> shift) & 0xFF) for shift in (0, 8, 16))
        exponents.append(word >> 24)
    payload = bytes(mantissas) + zlib.compress(bytes(exponents), _EXPONENT_PLANE_LEVEL)
    return CompressedFloats(codec=FloatCodec.name, payload=payload, count=len(words))
