"""Payload size accounting.

Every result in the paper's evaluation is reported in bytes actually sent on
the network.  The simulator meters those bytes through this module so all
algorithms (full sharing, random sampling, CHOCO, JWINS) are measured with the
same accounting rules:

* parameter values travel through the configured float codec (Fpzip in the
  paper; here :class:`~repro.compression.float_codec.FloatCodec`, which sends
  the three low bytes of each float32 raw and the sign/exponent byte plane
  through DEFLATE level 1);
* sparsification metadata travels through the configured index codec;
* every message carries a small fixed framing header.
"""

from __future__ import annotations

from dataclasses import dataclass

BYTES_PER_FLOAT32 = 4
BYTES_PER_INT32 = 4
MESSAGE_HEADER_BYTES = 32

KIB = 1024
MIB = 1024**2
GIB = 1024**3

__all__ = [
    "BYTES_PER_FLOAT32",
    "BYTES_PER_INT32",
    "GIB",
    "KIB",
    "MESSAGE_HEADER_BYTES",
    "MIB",
    "PayloadSize",
    "format_bytes",
]


@dataclass(frozen=True)
class PayloadSize:
    """Breakdown of one message's size in bytes."""

    values_bytes: int
    metadata_bytes: int
    header_bytes: int = MESSAGE_HEADER_BYTES

    @property
    def total_bytes(self) -> int:
        """Everything that crossed the wire: values + metadata + framing."""

        return self.values_bytes + self.metadata_bytes + self.header_bytes

    def __add__(self, other: "PayloadSize") -> "PayloadSize":
        return PayloadSize(
            values_bytes=self.values_bytes + other.values_bytes,
            metadata_bytes=self.metadata_bytes + other.metadata_bytes,
            header_bytes=self.header_bytes + other.header_bytes,
        )


def format_bytes(count: float) -> str:
    """Human-readable byte count using binary units (KiB/MiB/GiB/TiB)."""

    value = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(value) < 1024.0:
            return f"{value:.2f} {unit}"
        value /= 1024.0
    return f"{value:.2f} TiB"
