"""Unit tests for the metrics registry: instruments, merge, rendering."""

from __future__ import annotations

import json

import pytest

from repro.observability.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestInstruments:
    def test_counter_accumulates(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_gauge_overwrites(self):
        gauge = Gauge()
        gauge.set(7.0)
        gauge.set(3.0)
        assert gauge.value == 3.0

    def test_histogram_tracks_count_mean_extrema(self):
        histogram = Histogram()
        for value in (2.0, 8.0, 5.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.mean == 5.0
        assert histogram.minimum == 2.0
        assert histogram.maximum == 8.0

    def test_empty_histogram_serializes_without_inf(self):
        payload = Histogram().to_dict()
        assert payload["min"] is None and payload["max"] is None
        # The document must survive a JSON round trip (inf would not).
        restored = Histogram.from_dict(json.loads(json.dumps(payload)))
        assert restored.count == 0
        restored.observe(4.0)
        assert restored.minimum == 4.0 and restored.maximum == 4.0

    def test_histogram_mean_is_zero_before_first_sample(self):
        assert Histogram().mean == 0.0


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("events") is registry.counter("events")
        registry.counter("events").inc(3)
        assert registry.to_dict()["events"]["value"] == 3

    def test_labels_are_part_of_the_key_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter("bytes", scheme="jwins").inc(10)
        registry.counter("bytes", scheme="choco").inc(20)
        assert "bytes{scheme=jwins}" in registry.to_dict()
        assert registry.to_dict()["bytes{scheme=choco}"]["value"] == 20
        # Label order in the call never changes the key.
        a = registry.counter("m", b=1, a=2)
        b = registry.counter("m", a=2, b=1)
        assert a is b

    def test_kind_mismatch_is_rejected(self):
        registry = MetricsRegistry()
        registry.counter("rounds")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("rounds")

    def test_items_are_sorted_by_key(self):
        registry = MetricsRegistry()
        registry.counter("zeta")
        registry.counter("alpha")
        assert [key for key, _ in registry.items()] == ["alpha", "zeta"]

    def test_serialization_roundtrip(self):
        registry = MetricsRegistry()
        registry.counter("sent", scheme="jwins").inc(42)
        registry.gauge("rounds").set(7)
        registry.histogram("latency").observe(0.5)
        payload = json.loads(json.dumps(registry.to_dict()))
        restored = MetricsRegistry.from_dict(payload)
        assert restored.to_dict() == registry.to_dict()

    def test_render_lists_every_instrument(self):
        registry = MetricsRegistry()
        registry.counter("sent").inc(3)
        registry.histogram("latency").observe(2.0)
        text = registry.render()
        assert "sent" in text and "latency" in text and "count=1" in text
        assert MetricsRegistry().render() == "no metrics recorded"


class TestMerge:
    def _registry(self, sent: float, rounds: float, samples: list[float]) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("sent").inc(sent)
        registry.gauge("rounds").set(rounds)
        for value in samples:
            registry.histogram("latency").observe(value)
        return registry

    def test_counters_add_gauges_max_histograms_pool(self):
        merged = self._registry(10, 3, [1.0]).merge(self._registry(5, 8, [4.0, 2.0]))
        assert merged.to_dict()["sent"]["value"] == 15
        assert merged.to_dict()["rounds"]["value"] == 8
        histogram = merged.histogram("latency")
        assert histogram.count == 3
        assert histogram.minimum == 1.0 and histogram.maximum == 4.0

    def test_merge_is_order_independent(self):
        parts = [
            self._registry(10, 3, [1.0]),
            self._registry(5, 8, [4.0]),
            self._registry(2, 1, [0.5, 9.0]),
        ]
        forward = MetricsRegistry()
        for part in parts:
            forward.merge(part)
        backward = MetricsRegistry()
        for part in reversed(parts):
            backward.merge(part)
        assert forward.to_dict() == backward.to_dict()

    def test_merge_accepts_to_dict_payloads(self):
        # Pool workers ship their registry across the process boundary as the
        # serialized payload; merging it must equal merging the live registry.
        worker = self._registry(10, 3, [1.0])
        via_object = MetricsRegistry().merge(worker)
        via_payload = MetricsRegistry().merge(worker.to_dict())
        assert via_object.to_dict() == via_payload.to_dict()

    def test_merge_kind_conflict_is_rejected(self):
        a = MetricsRegistry()
        a.counter("x")
        b = MetricsRegistry()
        b.gauge("x")
        with pytest.raises(ValueError, match="cannot merge"):
            a.merge(b)

