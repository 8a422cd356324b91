"""Vectorized bit-level packing used by the entropy coders.

The Elias-gamma metadata codec (Section III-C of the paper) and the quantized
wire format operate at bit granularity.  Bits are stored most-significant
first within each byte, the final byte is zero-padded, and every stream
carries its exact number of valid bits so a reader never interprets padding.

* :func:`pack_bitfields` works at 64-bit-word granularity, one array element
  per *field*: each value is shifted to where its last bit belongs in its
  word, the fields of one word are combined in a single ``reduceat``, and the
  words are serialized big-endian.
* :func:`unpack_bits` expands a payload into a 0/1 array with
  ``np.unpackbits`` for the vectorized decoders.

Both are pinned byte for byte to the one-bit-at-a-time writer and reader kept
as oracles in ``tests/oracles/bitstream.py``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import CodecError

__all__ = ["pack_bitfields", "unpack_bits"]


#: Widest bit field :func:`pack_bitfields` accepts: a field narrower than a
#: 64-bit word spans at most two words and leaves at least one field end in
#: every word, which the kernel relies on (and numpy's int64 shifts are
#: undefined beyond 63 positions).
MAX_FIELD_BITS = 63


def pack_bitfields(values: np.ndarray, widths: np.ndarray) -> tuple[bytes, int]:
    """Pack ``values[i]`` into ``widths[i]`` MSB-first bits, all at once.

    Fields are concatenated most-significant-bit first and the final byte is
    zero-padded.  Returns ``(payload, bit_length)``.

    Works on 64-bit words, one array element per *field* rather than per bit:
    field ``i`` ends at stream bit ``ends[i] = cumsum(widths)[i]``, so its
    value is shifted up to end at that bit of word ``(ends[i] - 1) >> 6``; the
    fields of one word occupy disjoint bits, so summing them is OR-ing them.
    A field of at most 63 bits spans at most two words, and only the last
    field ending in a word can have started in the previous one, whose low
    bits then receive the field's high bits.

    Raises :class:`~repro.exceptions.CodecError` if any value is negative or
    does not fit in its declared width, or if a width exceeds
    :data:`MAX_FIELD_BITS` (the int64 shift limit of the vectorized kernel).
    """

    values = np.asarray(values, dtype=np.int64).ravel()
    widths = np.asarray(widths, dtype=np.int64).ravel()
    if values.size != widths.size:
        raise CodecError(
            f"got {values.size} values but {widths.size} widths"
        )
    if values.size == 0:
        return b"", 0
    if widths.min() < 0:
        raise CodecError("width must be non-negative")
    if widths.max() > MAX_FIELD_BITS:
        raise CodecError(
            f"pack_bitfields supports fields up to {MAX_FIELD_BITS} bits"
        )
    # A value fits its width iff shifting the width away leaves nothing
    # (width 0 therefore only admits the value 0); the
    # arithmetic shift keeps a negative value negative, hence non-zero.
    # Every field-sized temporary below is dropped (or overwritten in place)
    # as soon as it has been read: the packer runs at a round's memory peak.
    overflow = values >> widths
    if overflow.any():
        bad = int(np.flatnonzero(overflow)[0])
        raise CodecError(
            f"value {int(values[bad])} does not fit in {int(widths[bad])} bits"
        )
    del overflow

    occupied = widths != 0
    if not occupied.all():
        # Zero-width fields hold no bits; dropping them keeps every remaining
        # field end strictly increasing (and >= 1).
        values, widths = values[occupied], widths[occupied]
    del occupied
    if values.size == 0:
        return b"", 0
    last_bits = np.cumsum(widths)
    last_bits -= 1
    total_bits = int(last_bits[-1]) + 1
    # A field wider than the bits of its word up to its last one began in the
    # previous word; at most one does per boundary, so the indices are distinct.
    word_bits = last_bits & 63
    word_bits += 1
    straddlers = np.flatnonzero(widths > word_bits)
    del word_bits
    word_of = last_bits >> 6
    # Every word holds at least one field end (a field is narrower than a
    # word), so the word index rises by 0 or 1 per field and one reduceat over
    # the run starts yields all ceil(total_bits / 64) words in order.
    run_starts = np.concatenate(
        [np.zeros(1, dtype=np.intp), np.flatnonzero(word_of[1:] != word_of[:-1]) + 1]
    )
    spill_words = word_of[straddlers] - 1
    del word_of
    # Stream bit b is bit 63 - (b & 63) of its word (MSB first), which is the
    # left shift that puts a field's last bit in place.  A straddling field
    # loses its high bits to the uint64 overflow of that shift, on purpose:
    # they are gathered first and go to the previous word.
    offsets = last_bits
    del last_bits
    offsets &= 63
    np.subtract(63, offsets, out=offsets)
    shifts = offsets.view(np.uint64)  # 0..63: the same bits either way
    del offsets
    fields = values.astype(np.uint64)
    spills = fields[straddlers] >> (np.uint64(64) - shifts[straddlers])
    fields <<= shifts
    del shifts
    words = np.add.reduceat(fields, run_starts)
    del fields
    words[spill_words] |= spills
    return words.astype(">u8").tobytes()[: (total_bits + 7) // 8], total_bits


def unpack_bits(payload: bytes, bit_length: int) -> np.ndarray:
    """The first ``bit_length`` bits of ``payload`` as a ``uint8`` 0/1 array.

    MSB-first within each byte.  Raises :class:`~repro.exceptions.CodecError`
    when ``bit_length`` exceeds the available data.
    """

    if bit_length < 0:
        raise CodecError("bit_length must be non-negative")
    data = np.frombuffer(payload, dtype=np.uint8)
    if bit_length > data.size * 8:
        raise CodecError("bit_length exceeds the available data")
    return np.unpackbits(data, count=bit_length) if bit_length else np.zeros(0, np.uint8)
