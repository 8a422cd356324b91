"""Minimal bit-level I/O used by the entropy coders.

The Elias-gamma metadata codec (Section III-C of the paper) operates on a bit
granularity; this module provides a writer that packs bits into ``bytes`` and
a reader that consumes them again.  Bits are stored most-significant first
within each byte, and the writer records the exact number of valid bits so the
reader never interprets padding.

Two interchangeable implementations live here:

* :class:`BitWriter`/:class:`BitReader` — the scalar, one-bit-at-a-time
  reference.  Easy to audit, and the ground truth the vectorized paths are
  pinned against byte-for-byte.
* :func:`pack_bitfields`/:func:`unpack_bits` — the vectorized bulk operations
  the hot path uses.  Packing works at 64-bit-word granularity, one array
  element per *field*: each value is shifted to where its last bit belongs in
  its word, the fields of one word are combined in a single ``reduceat``, and
  the words are serialized big-endian — the same bytes, zero-padded final byte
  included, as :meth:`BitWriter.getvalue`.  Unpacking expands a payload into a
  0/1 array with ``np.unpackbits`` for the vectorized decoders.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import CodecError

__all__ = ["BitReader", "BitWriter", "pack_bitfields", "unpack_bits"]


class BitWriter:
    """Accumulates individual bits and unsigned integers into a byte string."""

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._current = 0
        self._filled = 0
        self._bit_count = 0

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1)."""

        if bit not in (0, 1):
            raise CodecError(f"bit must be 0 or 1, got {bit!r}")
        self._current = (self._current << 1) | bit
        self._filled += 1
        self._bit_count += 1
        if self._filled == 8:
            self._buffer.append(self._current)
            self._current = 0
            self._filled = 0

    def write_bits(self, value: int, width: int) -> None:
        """Append ``width`` bits of ``value``, most significant bit first."""

        if width < 0:
            raise CodecError("width must be non-negative")
        if value < 0 or (width < 64 and value >= (1 << width)):
            raise CodecError(f"value {value} does not fit in {width} bits")
        for position in range(width - 1, -1, -1):
            self.write_bit((value >> position) & 1)

    def write_unary(self, count: int) -> None:
        """Append ``count`` zero bits followed by a one bit."""

        if count < 0:
            raise CodecError("unary count must be non-negative")
        for _ in range(count):
            self.write_bit(0)
        self.write_bit(1)

    @property
    def bit_length(self) -> int:
        """Number of bits written so far."""

        return self._bit_count

    def getvalue(self) -> bytes:
        """Return the packed bytes (the final byte is zero-padded)."""

        data = bytes(self._buffer)
        if self._filled:
            data += bytes([self._current << (8 - self._filled)])
        return data


class BitReader:
    """Reads bits previously produced by :class:`BitWriter`."""

    def __init__(self, data: bytes, bit_length: int | None = None) -> None:
        self._data = bytes(data)
        self._bit_length = len(self._data) * 8 if bit_length is None else int(bit_length)
        if self._bit_length > len(self._data) * 8:
            raise CodecError("bit_length exceeds the available data")
        self._position = 0

    @property
    def remaining(self) -> int:
        """Number of unread bits."""

        return self._bit_length - self._position

    def read_bit(self) -> int:
        """Read the next bit (0 or 1)."""

        if self._position >= self._bit_length:
            raise CodecError("attempted to read past the end of the bit stream")
        byte = self._data[self._position // 8]
        bit = (byte >> (7 - self._position % 8)) & 1
        self._position += 1
        return bit

    def read_bits(self, width: int) -> int:
        """Read ``width`` bits as an unsigned integer (MSB first)."""

        value = 0
        for _ in range(width):
            value = (value << 1) | self.read_bit()
        return value

    def read_unary(self) -> int:
        """Read a unary-coded count (number of zeros before the next one)."""

        count = 0
        while self.read_bit() == 0:
            count += 1
        return count


# -- vectorized bulk operations ---------------------------------------------------------

#: Widest bit field :func:`pack_bitfields` accepts: a field narrower than a
#: 64-bit word spans at most two words and leaves at least one field end in
#: every word, which the kernel relies on (and numpy's int64 shifts are
#: undefined beyond 63 positions).  Wider fields must go through the scalar
#: :class:`BitWriter` instead.
MAX_FIELD_BITS = 63


def pack_bitfields(values: np.ndarray, widths: np.ndarray) -> tuple[bytes, int]:
    """Pack ``values[i]`` into ``widths[i]`` MSB-first bits, all at once.

    The output is byte-for-byte identical to a :class:`BitWriter` receiving the
    same ``write_bits(value, width)`` calls in order: fields are concatenated
    most-significant-bit first and the final byte is zero-padded.  Returns
    ``(payload, bit_length)``.

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
            f"pack_bitfields supports fields up to {MAX_FIELD_BITS} bits; "
            "use BitWriter for wider fields"
        )
    # A value fits its width iff shifting the width away leaves nothing
    # (width 0 therefore only admits the value 0, as write_bits does); the
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

    MSB-first within each byte, matching :class:`BitReader`.  Raises
    :class:`~repro.exceptions.CodecError` when ``bit_length`` exceeds the
    available data, like the :class:`BitReader` constructor does.
    """

    if bit_length < 0:
        raise CodecError("bit_length must be non-negative")
    data = np.frombuffer(payload, dtype=np.uint8)
    if bit_length > data.size * 8:
        raise CodecError("bit_length exceeds the available data")
    return np.unpackbits(data, count=bit_length) if bit_length else np.zeros(0, np.uint8)
