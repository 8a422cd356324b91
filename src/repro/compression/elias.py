"""Elias gamma coding of positive integers.

The paper compresses the sparsification metadata (the list of selected
coefficient indices) by Elias-gamma coding the difference array of sorted
indices, the same trick used by QSGD.  Elias gamma represents a positive
integer ``n`` as ``floor(log2 n)`` zero bits followed by the binary expansion
of ``n``; small gaps therefore cost very few bits.

Encoding computes every code length at once from ``np.frexp``'s exponent and
hands ``(value, 2L - 1)`` fields to the word-level packer
:func:`~repro.compression.bitstream.pack_bitfields`, so its cost grows with
the number of values, not of output bits; decoding
(:func:`elias_gamma_decode_array`) finds each code's unary terminator with a
vectorized leading-one scan and enumerates the code boundaries by pointer
doubling instead of walking bit by bit.  Both are pinned byte for byte to the
bit-serial coder in ``tests/oracles/codecs.py``.

The index codec needs only the stream's length at encode time, which is
arithmetic over the same code lengths (``_gamma_bit_counts``); it packs with
:func:`elias_gamma_encode` when its payload is first read.

The domain is ``[1, 2**32 - 1]``, whose widest code (63 bits) fits the int64
kernels.  Index gaps are bounded by the coefficient count, and a gap of
``2**32`` would need a 4.3-billion-parameter model (32 GiB per float64
vector).  Values outside the domain, and streams holding a code the encoder
cannot emit, are refused with :class:`~repro.exceptions.CodecError`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.compression.bitstream import pack_bitfields, unpack_bits
from repro.exceptions import CodecError

__all__ = ["elias_gamma_decode_array", "elias_gamma_encode"]

#: Largest value the coder accepts: its code (bit_length 32 -> width 63) is
#: the widest the int64 kernels shift.
_MAX_VALUE = (1 << 32) - 1

#: Most bit fields the rows form of :func:`elias_gamma_encode` hands
#: :func:`~repro.compression.bitstream.pack_bitfields` at once.  The packer
#: keeps about a dozen field-sized temporaries alive, so its transient memory
#: would grow with the number of rows (one pack over a 1,000-node round's
#: 118k fields measured +9% peak RSS); 8k fields stay in cache at any N.
_ROWS_CHUNK_FIELDS = 8192


def _bit_lengths(values: np.ndarray) -> np.ndarray:
    """Exact ``int.bit_length()`` of each value in the domain, vectorized (as C ints).

    ``np.frexp`` writes ``v = m * 2**e`` with ``0.5 <= m < 1``, so ``e`` is the
    bit length of every value float64 holds exactly: all below ``2**53``.
    """

    _, lengths = np.frexp(values)
    return lengths


def _require_in_domain(data: np.ndarray) -> None:
    """Refuse any value outside ``[1, 2**32 - 1]`` (``data`` is non-empty)."""

    if data.min() < 1 or data.max() > _MAX_VALUE:
        bad = int(data[(data < 1) | (data > _MAX_VALUE)][0])
        raise CodecError(f"Elias gamma codes integers in [1, 2**32 - 1], got {bad}")


def _gamma_bit_counts(data: np.ndarray) -> list[int]:
    """Bits of the gamma codes of each row of an ``(n, k)`` int64 matrix.

    The exact ``bit_length`` of :func:`elias_gamma_encode`'s stream for that
    row, as arithmetic over the values (``sum(2 * bit_length(v) - 1)``),
    without packing a bit: the index codec's size at encode time.
    """

    if data.size == 0:
        return [0] * data.shape[0]
    _require_in_domain(data)
    return (2 * _bit_lengths(data).sum(axis=1) - data.shape[1]).tolist()


def elias_gamma_encode(
    values: Iterable[int] | Sequence[int] | np.ndarray,
) -> tuple[bytes, int, int] | list[tuple[bytes, int, int]]:
    """Encode a sequence of integers in ``[1, 2**32 - 1]``.

    Returns ``(payload, bit_length, count)``; ``bit_length`` is required for an
    exact decode and ``count`` is the number of encoded integers.

    A 2-D array is a stack of equally long sequences: the result is then a
    list with one such triple per row, each identical to the 1-D call on that
    row.
    """

    if isinstance(values, np.ndarray):
        data = np.asarray(values, dtype=np.int64)
    else:
        data = np.asarray(list(values), dtype=np.int64)
    if data.ndim == 2:
        return _encode_matrix(data)
    return _encode_matrix(data.reshape(1, -1))[0]


def _encode_matrix(data: np.ndarray) -> list[tuple[bytes, int, int]]:
    """Gamma-code every row of an ``(n, k)`` matrix as its own byte-aligned stream.

    Rows are packed :data:`_ROWS_CHUNK_FIELDS` fields at a time: within a chunk
    a zero-valued pad field after each row rounds it up to a whole byte, so one
    :func:`pack_bitfields` call emits the rows back to back and the payload
    splits at byte offsets.  A chunk of one row — the 1-D call, or rows longer
    than a chunk — needs no pad (the packer zero-pads the final byte itself)
    and is packed in place, without a copy.
    """

    rows, count = data.shape
    if data.size == 0:
        return [(b"", 0, 0)] * rows
    _require_in_domain(data)
    encoded: list[tuple[bytes, int, int]] = []
    step = max(1, _ROWS_CHUNK_FIELDS // (count + 1))
    for start in range(0, rows, step):
        block = data[start : start + step]
        # gamma(v) is v right-aligned in a field of 2L-1 bits: the L-1 leading
        # zeros double as the unary prefix and v's own leading one terminates it.
        widths = 2 * _bit_lengths(block) - 1
        if block.shape[0] == 1:
            encoded.append((*pack_bitfields(block, widths), count))
            continue
        row_bits = widths.sum(axis=1)
        fields = np.zeros((block.shape[0], count + 1), dtype=np.int64)
        fields[:, :count] = block
        field_widths = np.empty_like(fields)
        field_widths[:, :count] = widths
        field_widths[:, count] = -row_bits & 7
        payload, _ = pack_bitfields(fields, field_widths)
        stops = np.cumsum((row_bits + 7) >> 3).tolist()
        for begin, stop, bits in zip([0] + stops, stops, row_bits.tolist()):
            encoded.append((payload[begin:stop], bits, count))
    return encoded


def elias_gamma_decode_array(payload: bytes, bit_length: int, count: int) -> np.ndarray:
    """Decode ``count`` integers from an Elias-gamma ``payload`` as an int64 array.

    A code with more than 32 value bits is outside the encoder's domain and is
    refused, like a stream that ends early or has bits left over.
    """

    if count < 0:
        raise CodecError("count must be non-negative")
    bits = unpack_bits(payload, bit_length)
    if count == 0:
        if bit_length:
            raise CodecError(f"{bit_length} unread bits left after decoding 0 values")
        return np.zeros(0, dtype=np.int64)

    total = int(bit_length)
    # next_one[i] = position of the first set bit at or after i (the unary
    # terminator of a code starting at i); `total` when there is none.
    # A reverse running minimum over own-position-if-set computes it in O(n).
    # (Index arrays stay int64: numpy re-casts narrower index dtypes to intp
    # on every fancy-indexing gather, which costs more than the bandwidth.)
    positions = np.arange(total)
    own = np.where(bits.astype(bool), positions, total)
    next_one = np.minimum.accumulate(own[::-1])[::-1]

    # A code starting at s has z = next_one[s] - s unary zeros and ends at
    # step(s) = next_one[s] + z + 1 = 2*next_one[s] - s + 1, where the next
    # code begins.  Iterating `step` from 0 yields every code boundary; the
    # orbit is enumerated in O(log count) vectorized gathers by pointer
    # doubling.  Sentinels: `total` = stream exhausted, `total + 1` = the code
    # overran the end of the stream.
    step = 2 * next_one - positions + 1
    step = np.where(step > total, total + 1, step)
    jump = np.concatenate([step, [total, total + 1]])

    starts = np.zeros(1, dtype=np.int64)
    doubling = jump
    while starts.size < count:
        # Truncation only ever fires on the exit iteration, so every squaring
        # below still composes over a full power-of-two prefix of the orbit.
        starts = np.concatenate([starts, doubling[starts]])[:count]
        if starts.size < count:
            doubling = doubling[doubling]
    end = int(jump[starts[count - 1]])

    if np.any(starts >= total) or end > total:
        raise CodecError("attempted to read past the end of the bit stream")
    if end < total:
        raise CodecError(f"{total - end} unread bits left after decoding {count} values")

    terminators = next_one[starts]
    widths = terminators - starts + 1  # leading one + z payload bits
    if int(widths.max()) > _MAX_VALUE.bit_length():
        raise CodecError(
            f"a code holds {int(widths.max())} value bits; Elias gamma codes at most 32"
        )
    # Gather each code's value bits (terminator one included) and fold them
    # MSB-first with grouped shifted sums.
    bounds = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(widths)[:-1]])
    positions = np.arange(int(widths.sum())) - np.repeat(bounds, widths)
    sources = np.repeat(terminators, widths) + positions
    shifts = np.repeat(widths, widths) - 1 - positions
    contributions = bits[sources].astype(np.int64) << shifts
    return np.add.reduceat(contributions, bounds)
