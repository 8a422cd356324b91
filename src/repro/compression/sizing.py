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

The simulator meters every message and decodes none, so a codec's record
knows its exact size when it is made and packs its bytes only when someone
reads them (:class:`_Encoding`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

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


class _Deferred:
    """A payload of known length whose bytes ``pack()`` makes when first needed."""

    __slots__ = ("length", "pack")

    def __init__(self, length: int, pack: Callable[[], bytes]) -> None:
        self.length = length
        self.pack = pack

    def __len__(self) -> int:
        return self.length


class _Encoding:
    """Base of a codec's output record: exact size at once, payload bytes on demand.

    A codec passes a :class:`_Deferred` as ``payload`` and keeps its own copy
    of what it packs from, so metering a record (``len`` of the payload) never
    packs it, and mutating the encoded array afterwards cannot change it.  The
    first read of ``payload`` packs it and keeps the bytes.  A record built
    from bytes (a decoder's input) holds them as given.  Records compare
    by their constructor fields, listed in order in ``_FIELDS``, payload bytes
    included.  Subclasses assign their slots directly (a round makes one or
    two records per message).
    """

    __slots__ = ("_payload",)
    _FIELDS: tuple[str, ...] = ()

    @property
    def payload(self) -> bytes:
        """The encoded bytes (packed on first read)."""

        if isinstance(self._payload, _Deferred):
            self._payload = self._payload.pack()
        return self._payload

    def _values(self) -> tuple[Any, ...]:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]


def format_bytes(count: float) -> str:
    """Human-readable byte count using binary units (KiB/MiB/GiB/TiB)."""

    value = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(value) < 1024.0:
            return f"{value:.2f} {unit}"
        value /= 1024.0
    return f"{value:.2f} TiB"
