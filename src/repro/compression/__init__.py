"""Compression substrate: bit streams, Elias gamma, index codecs and float codecs."""

from repro.compression.bitstream import pack_bitfields, unpack_bits
from repro.compression.elias import elias_gamma_decode_array, elias_gamma_encode
from repro.compression.float_codec import (
    CompressedFloats,
    DeflateFloatCodec,
    FloatCodec,
    LzmaFloatCodec,
    RawFloatCodec,
)
from repro.compression.quantization import (
    QsgdQuantizer,
    QuantizedVector,
    pack_quantized,
    unpack_quantized,
)
from repro.compression.indices import (
    EliasGammaIndexCodec,
    EncodedIndexRows,
    EncodedIndices,
    IndexCodec,
    RawIndexCodec,
    random_indices_from_seed,
)
from repro.compression.sizing import (
    BYTES_PER_FLOAT32,
    BYTES_PER_INT32,
    GIB,
    KIB,
    MESSAGE_HEADER_BYTES,
    MIB,
    PayloadSize,
    format_bytes,
)

__all__ = [
    "pack_bitfields",
    "unpack_bits",
    "elias_gamma_decode_array",
    "elias_gamma_encode",
    "CompressedFloats",
    "DeflateFloatCodec",
    "FloatCodec",
    "LzmaFloatCodec",
    "RawFloatCodec",
    "QsgdQuantizer",
    "QuantizedVector",
    "pack_quantized",
    "unpack_quantized",
    "EliasGammaIndexCodec",
    "EncodedIndexRows",
    "EncodedIndices",
    "IndexCodec",
    "RawIndexCodec",
    "random_indices_from_seed",
    "BYTES_PER_FLOAT32",
    "BYTES_PER_INT32",
    "GIB",
    "KIB",
    "MESSAGE_HEADER_BYTES",
    "MIB",
    "PayloadSize",
    "format_bytes",
]
