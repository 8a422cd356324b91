"""Tests for payload size accounting."""

import pytest

from repro.compression.sizing import GIB, KIB, MIB, PayloadSize, format_bytes


def test_total_includes_header():
    size = PayloadSize(values_bytes=100, metadata_bytes=20)
    assert size.total_bytes == 100 + 20 + size.header_bytes


def test_units_are_binary():
    assert KIB == 1024
    assert MIB == 1024**2
    assert GIB == 1024**3


@pytest.mark.parametrize(
    "count, expected",
    [
        (512, "512.00 B"),
        (2048, "2.00 KiB"),
        (3 * MIB, "3.00 MiB"),
        (5 * GIB, "5.00 GiB"),
        (1024**4 * 1.5, "1.50 TiB"),
    ],
)
def test_format_bytes(count, expected):
    assert format_bytes(count) == expected
