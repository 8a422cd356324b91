"""Elias gamma coding of positive integers.

The paper compresses the sparsification metadata (the list of selected
coefficient indices) by Elias-gamma coding the difference array of sorted
indices, the same trick used by QSGD.  Elias gamma represents a positive
integer ``n`` as ``floor(log2 n)`` zero bits followed by the binary expansion
of ``n``; small gaps therefore cost very few bits.

Two implementations are provided with byte-identical output:

* :func:`elias_gamma_encode_reference`/:func:`elias_gamma_decode_reference` —
  the original bit-serial code built on :class:`~repro.compression.bitstream.BitWriter`;
  the ground truth the equivalence tests compare against.
* :func:`elias_gamma_encode`/:func:`elias_gamma_decode` — the vectorized
  path.  Encoding computes every code length at once from ``np.frexp``'s
  exponent and hands ``(value, 2L - 1)`` fields to the word-level packer
  :func:`~repro.compression.bitstream.pack_bitfields`, so its cost grows with
  the number of values, not of output bits; decoding finds each code's unary
  terminator with a vectorized leading-one scan and enumerates the code
  boundaries by pointer doubling instead of walking bit by bit.

The index codec needs only the stream's length at encode time, which is
arithmetic over the same code lengths (``_gamma_bit_counts``); it packs with
:func:`elias_gamma_encode` when its payload is first read.

Values at or above ``2**32`` (codes wider than 63 bits, beyond numpy's int64
shift range) are transparently routed to the reference implementation, so the
public functions are exact for the full positive int64 range.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.compression.bitstream import BitReader, BitWriter, pack_bitfields, unpack_bits
from repro.exceptions import CodecError

__all__ = [
    "elias_gamma_decode",
    "elias_gamma_decode_array",
    "elias_gamma_decode_reference",
    "elias_gamma_encode",
    "elias_gamma_encode_reference",
    "gamma_code_length",
]

#: Largest value whose gamma code fits the vectorized int64 kernels
#: (bit_length 32 -> code width 63).
_MAX_FAST_VALUE = (1 << 32) - 1

#: Significant bits of a float64: every integer below ``2**53`` converts exactly.
_FLOAT64_EXACT_BITS = 53

#: Most bit fields the rows form of :func:`elias_gamma_encode` hands
#: :func:`~repro.compression.bitstream.pack_bitfields` at once.  The packer
#: keeps about a dozen field-sized temporaries alive, so its transient memory
#: would grow with the number of rows (one pack over a 1,000-node round's
#: 118k fields measured +9% peak RSS); 8k fields stay in cache at any N.
_ROWS_CHUNK_FIELDS = 8192


def gamma_code_length(value: int) -> int:
    """Number of bits Elias gamma uses for ``value`` (must be >= 1)."""

    if value < 1:
        raise CodecError(f"Elias gamma requires positive integers, got {value}")
    return 2 * int(value).bit_length() - 1


def _encode_single(writer: BitWriter, value: int) -> None:
    if value < 1:
        raise CodecError(f"Elias gamma requires positive integers, got {value}")
    bits = int(value).bit_length()
    writer.write_unary(bits - 1)
    # The leading one bit acted as the unary terminator; emit the remainder.
    writer.write_bits(value - (1 << (bits - 1)), bits - 1)


def elias_gamma_encode_reference(
    values: Iterable[int] | Sequence[int] | np.ndarray,
) -> tuple[bytes, int, int]:
    """Bit-serial reference encoder (the original implementation).

    Same contract as :func:`elias_gamma_encode`; kept as the ground truth the
    vectorized encoder is compared against byte-for-byte.
    """

    writer = BitWriter()
    count = 0
    for value in np.asarray(list(values), dtype=np.int64):
        _encode_single(writer, int(value))
        count += 1
    return writer.getvalue(), writer.bit_length, count


def elias_gamma_decode_reference(payload: bytes, bit_length: int, count: int) -> list[int]:
    """Bit-serial reference decoder (the original implementation)."""

    reader = BitReader(payload, bit_length)
    values: list[int] = []
    for _ in range(count):
        zeros = reader.read_unary()
        remainder = reader.read_bits(zeros)
        values.append((1 << zeros) | remainder)
    if reader.remaining:
        raise CodecError(f"{reader.remaining} unread bits left after decoding {count} values")
    return values


def _bit_lengths(values: np.ndarray) -> np.ndarray:
    """Exact ``int.bit_length()`` of each positive int64, vectorized (as C ints).

    ``np.frexp`` writes ``v = m * 2**e`` with ``0.5 <= m < 1``, so ``e`` is the
    bit length of every value float64 holds exactly: all below ``2**53``.
    Above, rounding to 53 significant bits can carry into the next power of
    two and report one bit too many, which shows as ``2**(e - 1) > v`` and is
    taken back, so the result is exact over the whole positive int64 range.
    """

    _, lengths = np.frexp(values)
    if lengths.max() > _FLOAT64_EXACT_BITS:
        wide = lengths > _FLOAT64_EXACT_BITS
        claimed = np.left_shift(np.uint64(1), (lengths[wide] - 1).astype(np.uint64))
        lengths[wide] -= claimed > values[wide].astype(np.uint64)
    return lengths


def _require_positive(data: np.ndarray) -> None:
    if data.min() < 1:
        bad = int(data[data < 1][0])
        raise CodecError(f"Elias gamma requires positive integers, got {bad}")


def _gamma_bit_counts(data: np.ndarray) -> list[int]:
    """Bits of the gamma codes of each row of an ``(n, k)`` int64 matrix.

    The exact ``bit_length`` of :func:`elias_gamma_encode`'s stream for that
    row, as arithmetic over the values (``sum(2 * bit_length(v) - 1)``),
    without packing a bit: the index codec's size at encode time.
    """

    if data.size == 0:
        return [0] * data.shape[0]
    _require_positive(data)
    return (2 * _bit_lengths(data).sum(axis=1) - data.shape[1]).tolist()


def elias_gamma_encode(
    values: Iterable[int] | Sequence[int] | np.ndarray,
) -> tuple[bytes, int, int] | list[tuple[bytes, int, int]]:
    """Encode a sequence of positive integers.

    Returns ``(payload, bit_length, count)``; ``bit_length`` is required for an
    exact decode and ``count`` is the number of encoded integers.  The payload
    is byte-identical to :func:`elias_gamma_encode_reference`.

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
    _require_positive(data)
    if int(data.max()) > _MAX_FAST_VALUE:
        return [elias_gamma_encode_reference(row) for row in data]
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

    The vectorized fast path of :func:`elias_gamma_decode` (which only adds a
    list conversion); callers on the hot path use this form directly.
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
    if int(widths.max()) > 63:
        return np.asarray(
            elias_gamma_decode_reference(payload, bit_length, count), dtype=np.int64
        )
    # Gather each code's value bits (terminator one included) and fold them
    # MSB-first with grouped shifted sums.
    bounds = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(widths)[:-1]])
    positions = np.arange(int(widths.sum())) - np.repeat(bounds, widths)
    sources = np.repeat(terminators, widths) + positions
    shifts = np.repeat(widths, widths) - 1 - positions
    contributions = bits[sources].astype(np.int64) << shifts
    return np.add.reduceat(contributions, bounds)


def elias_gamma_decode(payload: bytes, bit_length: int, count: int) -> list[int]:
    """Decode ``count`` integers from an Elias-gamma ``payload``."""

    return elias_gamma_decode_array(payload, bit_length, count).tolist()
