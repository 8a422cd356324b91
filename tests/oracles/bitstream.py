"""One-bit-at-a-time writer and reader (MSB first within each byte, exact
bit length recorded): the reference for ``pack_bitfields``/``unpack_bits``."""

from repro.exceptions import CodecError


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
