"""Lossless floating-point payload compression.

The paper compresses the transmitted values with Fpzip, a lossless predictive
float compressor that "performed the best across our experiments".  Fpzip is
not available offline, so :class:`FloatCodec` is what performs best on *this*
system's traffic.  A message carries top-k wavelet coefficients (or sampled
parameters): they are not neighbours in the model, so a predictor has nothing
to predict, and of a float32's four bytes only the high one (sign and seven
exponent bits) repeats; the three below it are mantissa noise no entropy coder
shrinks.  So the three low bytes of every value are stored as they lie and
only the plane of high bytes is DEFLATEd.  Like Fpzip it is lossless at 32-bit
precision, and its measured size is what the byte-metering layer reports.

On every payload the five ``BENCHMARK.json`` workloads compress (seed 7, 4-byte
header included, best of three on a 2-core host with numpy 2.4), against the
design it replaced (XOR with the previous value, four byte planes, DEFLATE-6);
raw float32 is 4 B/value.  The times are of ``compress(values).size_bytes``,
the call the schemes make, which builds no raw mantissa bytes; reading
``payload`` as well adds 14-26%::

    workload        messages x values   replaced design      this codec
    wide4_sync           24 x 94k       3.460 B/v  487 ms    3.441 B/v  43 ms
    conv8_sync          192 x 6.6k      3.582 B/v  152 ms    3.446 B/v  27 ms
    gossip64_async    1,014 x 837       3.725 B/v  110 ms    3.459 B/v  28 ms
    sweep8_ckpt         576 x 2.1k      3.598 B/v  146 ms    3.424 B/v  29 ms
    mlp1k_arena       4,000 x 119       4.063 B/v  149 ms    3.650 B/v  43 ms
"""

from __future__ import annotations

import lzma
import zlib

import numpy as np

from repro.compression.sizing import _Deferred, _Encoding
from repro.exceptions import CodecError

__all__ = [
    "CompressedFloats",
    "DeflateFloatCodec",
    "FloatCodec",
    "LzmaFloatCodec",
    "RawFloatCodec",
]

#: DEFLATE level of the sign/exponent plane.  On the ``wide4_sync`` payloads
#: level 6 saves 1.1% of the bytes for 6.7x the time, so there is no knob.
_EXPONENT_PLANE_LEVEL = 1


class CompressedFloats(_Encoding):
    """A compressed float payload and the metadata needed to restore it.

    :class:`FloatCodec` and :class:`RawFloatCodec` size it when they make it
    and pack ``payload`` on first read.
    """

    __slots__ = ("codec", "count")
    _FIELDS = ("codec", "payload", "count")

    def __init__(self, codec: str, payload: bytes, count: int) -> None:
        self.codec = codec
        self._payload = payload
        self.count = count

    @property
    def size_bytes(self) -> int:
        """Size on the wire (payload plus a 4-byte element count header)."""

        return len(self._payload) + 4


class FloatCodec:
    """Mantissa bytes raw, sign/exponent bytes through DEFLATE-1, no predictor.

    The payload of ``n`` little-endian float32 values is their ``3n`` low bytes
    in value order, then one zlib stream of their ``n`` high bytes.  DEFLATE
    has no size formula, so :meth:`compress` runs it; the ``3n`` raw bytes and
    the concatenated payload are only built when ``payload`` is read.
    """

    name = "exp-deflate"

    def compress(self, values: np.ndarray) -> CompressedFloats:
        """Compress ``values`` losslessly at float32 precision."""

        data = np.array(values, dtype="<f4").ravel()  # a copy: the record owns it
        octets = data.view(np.uint8).reshape(data.size, 4)
        exponents = zlib.compress(octets[:, 3].tobytes(), _EXPONENT_PLANE_LEVEL)
        payload = _Deferred(
            3 * data.size + len(exponents), lambda: octets[:, :3].tobytes() + exponents
        )
        return CompressedFloats(self.name, payload, data.size)

    def decompress(self, compressed: CompressedFloats) -> np.ndarray:
        """Exactly invert :meth:`compress`, restoring the float32 values."""

        if compressed.codec != self.name:
            raise CodecError(
                f"payload was produced by {compressed.codec!r}, not {self.name!r}"
            )
        count, payload = compressed.count, memoryview(compressed.payload)
        inflater = zlib.decompressobj()
        try:  # a payload cut inside the raw planes leaves an empty stream here
            exponents = inflater.decompress(payload[3 * count :], count + 1)
        except zlib.error as error:
            raise CodecError(f"corrupt sign/exponent stream: {error}") from error
        if len(exponents) != count or not inflater.eof or inflater.unused_data:
            raise CodecError("payload is not 3 raw bytes and 1 deflated byte per value")
        octets = np.empty((count, 4), dtype=np.uint8)
        octets[:, :3] = np.frombuffer(payload[: 3 * count], dtype=np.uint8).reshape(count, 3)
        octets[:, 3] = np.frombuffer(exponents, dtype=np.uint8)
        return octets.reshape(-1).view("<f4").astype(np.float32, copy=False)


class RawFloatCodec:
    """No compression: 4 bytes per value (used as a baseline in size accounting)."""

    name = "raw32"

    def compress(self, values: np.ndarray) -> CompressedFloats:
        """Store the values as raw little-endian float32 bytes."""

        data = np.array(values, dtype="<f4").ravel()  # a copy: the record owns it
        payload = _Deferred(4 * data.size, data.tobytes)
        return CompressedFloats(codec=self.name, payload=payload, count=int(data.size))

    def decompress(self, compressed: CompressedFloats) -> np.ndarray:
        """Reinterpret the payload as float32 values."""

        if compressed.codec != self.name:
            raise CodecError(
                f"payload was produced by {compressed.codec!r}, not {self.name!r}"
            )
        return np.frombuffer(compressed.payload, dtype="<f4").copy()


class DeflateFloatCodec:
    """Plain DEFLATE over the raw float32 bytes (the LZ4/zlib-style baseline).

    The paper evaluated several general-purpose compressors before settling on
    Fpzip; this codec represents that family: no predictor, no byte-plane
    transposition, just an entropy coder over the raw bytes.
    """

    name = "deflate"

    def __init__(self, level: int = 6) -> None:
        if not 1 <= level <= 9:
            raise CodecError("zlib compression level must be in [1, 9]")
        self.level = int(level)

    def compress(self, values: np.ndarray) -> CompressedFloats:
        """DEFLATE the raw float32 bytes of ``values``."""

        data = np.asarray(values, dtype=np.float32).ravel()
        payload = zlib.compress(data.astype("<f4").tobytes(), self.level)
        return CompressedFloats(codec=self.name, payload=payload, count=int(data.size))

    def decompress(self, compressed: CompressedFloats) -> np.ndarray:
        """Inflate the payload back to float32 values."""

        if compressed.codec != self.name:
            raise CodecError(
                f"payload was produced by {compressed.codec!r}, not {self.name!r}"
            )
        raw = zlib.decompress(compressed.payload)
        if len(raw) != 4 * compressed.count:
            raise CodecError("decompressed payload has an unexpected size")
        return np.frombuffer(raw, dtype="<f4").copy()


class LzmaFloatCodec:
    """LZMA over the raw float32 bytes (the paper's LZMA baseline).

    Stronger compression than DEFLATE at a much higher CPU cost — the trade-off
    that made the paper prefer Fpzip.
    """

    name = "lzma"

    def __init__(self, preset: int = 1) -> None:
        if not 0 <= preset <= 9:
            raise CodecError("lzma preset must be in [0, 9]")
        self.preset = int(preset)

    def compress(self, values: np.ndarray) -> CompressedFloats:
        """LZMA-compress the raw float32 bytes of ``values``."""

        data = np.asarray(values, dtype=np.float32).ravel()
        payload = lzma.compress(data.astype("<f4").tobytes(), preset=self.preset)
        return CompressedFloats(codec=self.name, payload=payload, count=int(data.size))

    def decompress(self, compressed: CompressedFloats) -> np.ndarray:
        """Decompress the payload back to float32 values."""

        if compressed.codec != self.name:
            raise CodecError(
                f"payload was produced by {compressed.codec!r}, not {self.name!r}"
            )
        raw = lzma.decompress(compressed.payload)
        if len(raw) != 4 * compressed.count:
            raise CodecError("decompressed payload has an unexpected size")
        return np.frombuffer(raw, dtype="<f4").copy()
