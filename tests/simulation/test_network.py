"""Tests for byte metering."""

import pytest

from repro.compression.sizing import PayloadSize
from repro.exceptions import SimulationError
from repro.simulation.network import ByteMeter


def test_record_send_accounts_all_components():
    meter = ByteMeter(3)
    size = PayloadSize(values_bytes=100, metadata_bytes=10)
    meter.record_send(0, size, copies=4)
    assert meter.metadata_bytes_per_node[0] == 40
    assert meter.total_bytes_per_node[0] == 4 * size.total_bytes
    assert meter.total_bytes_per_node[1] == 0


def test_total_and_average_bytes():
    meter = ByteMeter(2)
    size = PayloadSize(values_bytes=50, metadata_bytes=0)
    meter.record_send(0, size, copies=1)
    meter.record_send(1, size, copies=1)
    assert meter.total_bytes == 2 * size.total_bytes
    assert meter.average_bytes_per_node == size.total_bytes


def test_round_accounting():
    meter = ByteMeter(2)
    size = PayloadSize(values_bytes=10, metadata_bytes=0)
    meter.record_send(0, size, copies=2)
    first = meter.end_round()
    meter.record_send(1, size, copies=1)
    second = meter.end_round()
    assert first == 2 * size.total_bytes
    assert second == size.total_bytes


def test_metadata_totals():
    meter = ByteMeter(1)
    meter.record_send(0, PayloadSize(values_bytes=5, metadata_bytes=7), copies=3)
    assert meter.total_metadata_bytes == 21
    assert meter.total_values_bytes == 15


def test_unknown_node_raises():
    meter = ByteMeter(2)
    with pytest.raises(SimulationError):
        meter.record_send(5, PayloadSize(1, 1))


def test_negative_copies_raise():
    meter = ByteMeter(2)
    with pytest.raises(SimulationError):
        meter.record_send(0, PayloadSize(1, 1), copies=-1)


def test_invalid_size_raises():
    with pytest.raises(SimulationError):
        ByteMeter(0)
