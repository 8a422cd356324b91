"""Codecs for the sparsification metadata (selected coefficient indices).

Two codecs are provided, matching the alternatives discussed in the paper:

* :class:`RawIndexCodec` — ships every index as a 32-bit integer.  Without any
  compression the metadata is as large as the parameter payload itself
  (Figure 9, first bar).
* :class:`EliasGammaIndexCodec` — sorts the indices, delta-encodes them and
  Elias-gamma codes the gaps (Section III-C, Figure 9 second bar).  This is
  the codec JWINS uses.

For random-sampling sparsification the indices are a deterministic function of
a shared pseudo-random seed (:func:`random_indices_from_seed`), so only the
seed travels (Section II-B2a); that baseline needs no index codec.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import partial

import numpy as np

from repro.compression.elias import (
    _gamma_bit_counts,
    elias_gamma_decode_array,
    elias_gamma_encode,
)
from repro.compression.sizing import _Deferred, _Encoding
from repro.exceptions import CodecError

__all__ = [
    "EliasGammaIndexCodec",
    "EncodedIndexRows",
    "EncodedIndices",
    "IndexCodec",
    "RawIndexCodec",
    "random_indices_from_seed",
]


class EncodedIndices(_Encoding):
    """An encoded index list together with everything needed to decode it.

    :class:`RawIndexCodec` and :class:`EliasGammaIndexCodec` size it when they
    make it and pack ``payload`` on first read.
    """

    __slots__ = ("codec", "bit_length", "count", "universe", "extra")
    _FIELDS = ("codec", "payload", "bit_length", "count", "universe", "extra")

    def __init__(
        self,
        codec: str,
        payload: bytes,
        bit_length: int,
        count: int,
        universe: int,
        extra: tuple[int, ...] = (),
    ) -> None:
        self.codec = codec
        self._payload = payload
        self.bit_length = bit_length
        self.count = count
        self.universe = universe
        self.extra = extra

    @property
    def size_bytes(self) -> int:
        """Size of the metadata on the wire (payload plus a small fixed header)."""

        # Header: count (4 bytes) + universe (4 bytes) + bit length (4 bytes)
        # + any extra integers (4 bytes each).
        return len(self._payload) + 12 + 4 * len(self.extra)


class EncodedIndexRows(tuple):
    """One :class:`EncodedIndices` per row of an encoded ``(n, k)`` index matrix."""

    __slots__ = ()

    @property
    def size_bytes(self) -> int:
        """Total metadata size of the rows, each framed as its own message."""

        return sum(row.size_bytes for row in self)


class IndexCodec(ABC):
    """Interface of an index codec."""

    name = "abstract"

    @abstractmethod
    def encode(
        self, indices: np.ndarray, universe: int
    ) -> EncodedIndices | EncodedIndexRows:
        """Encode ``indices`` drawn from ``range(universe)``.

        The codecs JWINS ships (:class:`RawIndexCodec`,
        :class:`EliasGammaIndexCodec`) also take an ``(n, k)`` matrix of ``n``
        equally long index lists and return :class:`EncodedIndexRows`, each
        row encoded exactly as the 1-D call would.
        """

    @abstractmethod
    def decode(self, encoded: EncodedIndices) -> np.ndarray:
        """Recover the (sorted) indices from ``encoded``."""


class RawIndexCodec(IndexCodec):
    """Uncompressed 32-bit indices (the Figure 9 'no compression' baseline)."""

    name = "raw"

    def encode(
        self, indices: np.ndarray, universe: int
    ) -> EncodedIndices | EncodedIndexRows:
        """Ship the indices verbatim as little-endian 32-bit integers."""

        values = _as_indices(indices)
        if values.ndim == 2:
            return EncodedIndexRows(self.encode(row, universe) for row in values)
        words = _validate_indices(values, universe).astype("<u4")
        return EncodedIndices(
            codec=self.name,
            payload=_Deferred(4 * words.size, words.tobytes),
            bit_length=32 * words.size,
            count=words.size,
            universe=int(universe),
        )

    def decode(self, encoded: EncodedIndices) -> np.ndarray:
        """Read the 32-bit indices back (already sorted iff encoded sorted)."""

        if encoded.codec != self.name:
            raise CodecError(f"payload was encoded with {encoded.codec!r}, not {self.name!r}")
        return np.frombuffer(encoded.payload, dtype="<u4").astype(np.int64)


class EliasGammaIndexCodec(IndexCodec):
    """Delta + Elias gamma coding of sorted indices (the JWINS metadata codec)."""

    name = "elias-gamma"

    def encode(
        self, indices: np.ndarray, universe: int
    ) -> EncodedIndices | EncodedIndexRows:
        """Sort, delta-encode and Elias-gamma code the index gaps."""

        values = _as_indices(indices)
        if values.ndim == 2:
            return self._encode_matrix(values, universe)
        return self._encode_matrix(values.reshape(1, -1), universe)[0]

    def _encode_matrix(self, values: np.ndarray, universe: int) -> EncodedIndexRows:
        # Top-k selection hands over ascending indices, and "strictly ascending
        # from a first index >= 0 to a last one < universe" proves a row
        # distinct, in range and sorted in O(k).  Any other row takes the full
        # validation (which raises, or accepts an unsorted set) and a sort.
        proven = _strictly_ascending_within(values, universe)
        if universe <= 0:
            proven[:] = False
        if not proven.all():
            values = values.copy()
            for row in np.flatnonzero(~proven):
                values[row] = np.sort(_validate_indices(values[row], universe))
        # Gaps are >= 1 between sorted distinct indices; shift the first index
        # by one so that every encoded integer is positive as gamma requires
        # (``np.diff(values, prepend=-1)``, without its concatenated copy).
        # The gaps are a new array, so the records own what they pack from.
        gaps = np.empty_like(values)
        np.add(values[:, :1], 1, out=gaps[:, :1])
        np.subtract(values[:, 1:], values[:, :-1], out=gaps[:, 1:])
        return EncodedIndexRows(
            EncodedIndices(
                codec=self.name,
                payload=_Deferred((bit_length + 7) >> 3, partial(_pack_gaps, row)),
                bit_length=bit_length,
                count=gaps.shape[1],
                universe=int(universe),
            )
            for row, bit_length in zip(gaps, _gamma_bit_counts(gaps))
        )

    def decode(self, encoded: EncodedIndices) -> np.ndarray:
        """Invert :meth:`encode`: decode the gaps and integrate them back."""

        if encoded.codec != self.name:
            raise CodecError(f"payload was encoded with {encoded.codec!r}, not {self.name!r}")
        gaps = elias_gamma_decode_array(encoded.payload, encoded.bit_length, encoded.count)
        values = np.cumsum(gaps) - 1
        if values.size and (values[0] < 0 or values[-1] >= encoded.universe):
            raise CodecError("decoded indices fall outside the declared universe")
        return values


def random_indices_from_seed(seed: int, count: int, universe: int) -> np.ndarray:
    """The shared-seed index set used by random-sampling sparsification."""

    if count > universe:
        raise CodecError(f"cannot draw {count} distinct indices from a universe of {universe}")
    rng = np.random.default_rng(int(seed) & 0xFFFFFFFF)
    return np.sort(rng.choice(universe, size=count, replace=False)).astype(np.int64)


def _strictly_ascending_within(values: np.ndarray, universe: int) -> np.ndarray:
    """Per row of ``(n, k)`` ``values``: strictly ascending inside ``[0, universe)``?

    Compares neighbours instead of differencing them, so extreme int64 values
    cannot wrap their way past the check.
    """

    if values.shape[1] == 0:
        return np.ones(values.shape[0], dtype=bool)
    return (
        (values[:, 0] >= 0)
        & (values[:, -1] < universe)
        & (values[:, 1:] > values[:, :-1]).all(axis=1)
    )


def _pack_gaps(gaps: np.ndarray) -> bytes:
    return elias_gamma_encode(gaps)[0]


def _as_indices(indices: np.ndarray) -> np.ndarray:
    """``indices`` as int64, refusing input that casting would silently change."""

    array = np.asarray(indices)
    if array.ndim > 2:
        raise CodecError(f"indices must be a list or an (n, k) matrix, got shape {array.shape}")
    if array.size and array.dtype.kind not in "iu":
        raise CodecError(f"indices must be integers, got dtype {array.dtype}")
    return array.astype(np.int64, copy=False)


def _validate_indices(indices: np.ndarray, universe: int) -> np.ndarray:
    values = _as_indices(indices).ravel()
    if universe <= 0:
        raise CodecError("universe must be positive")
    if values.size and (values.min() < 0 or values.max() >= universe):
        raise CodecError("indices must lie in [0, universe)")
    if np.unique(values).size != values.size:
        raise CodecError("indices must be distinct")
    return values
