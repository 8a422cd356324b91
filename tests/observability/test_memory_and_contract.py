"""Unit tests for memory tracking and the telemetry-scrub contract."""

from __future__ import annotations

import tracemalloc

import pytest

from repro.baselines.full_sharing import full_sharing_factory
from repro.exceptions import ExperimentPaused
from repro.observability.contract import TELEMETRY_RESULT_FIELDS, scrub_telemetry
from repro.observability.memory import MemoryTracker, peak_rss_bytes
from repro.simulation import ExperimentConfig, Simulator
from repro.utils.profiling import Profiler
from tests.conftest import make_toy_task


class TestPeakRss:
    def test_reports_a_plausible_positive_value(self):
        peak = peak_rss_bytes()
        # A running CPython interpreter needs at least a few MiB; anything
        # smaller means the kilobyte/byte unit conversion broke.
        assert peak > 4 * 2**20

    def test_is_monotone_nondecreasing(self):
        first = peak_rss_bytes()
        ballast = [bytes(1024) for _ in range(1000)]
        assert peak_rss_bytes() >= first
        del ballast


class TestMemoryTracker:
    def test_disabled_tracker_is_a_noop(self):
        tracker = MemoryTracker()
        tracker.start()
        assert tracker.stop() == {}

    def test_stop_without_start_returns_empty(self):
        assert MemoryTracker(top_n=3).stop() == {}

    def test_negative_top_n_rejected(self):
        with pytest.raises(ValueError):
            MemoryTracker(top_n=-1)

    def test_tracks_peak_and_attributes_sites(self):
        tracker = MemoryTracker(top_n=3)
        tracker.start()
        ballast = [bytearray(64 * 1024) for _ in range(16)]
        stats = tracker.stop()
        del ballast
        assert stats["tracemalloc_peak_bytes"] >= 16 * 64 * 1024
        assert 1 <= len(stats["tracemalloc_top"]) <= 3
        site = stats["tracemalloc_top"][0]
        assert ":" in site["site"] and site["bytes"] > 0 and site["count"] > 0

    def test_tracker_is_single_shot(self):
        tracker = MemoryTracker(top_n=1)
        tracker.start()
        assert tracker.stop() != {}
        assert tracker.stop() == {}


    def test_a_paused_run_stops_tracing_and_keeps_its_totals(self):
        """``Simulator.run`` stops the tracker on every exit, not only success."""

        profiler = Profiler(memory=MemoryTracker(top_n=1))
        simulator = Simulator(
            make_toy_task(),
            full_sharing_factory(),
            ExperimentConfig(
                num_nodes=4, degree=2, rounds=3, local_steps=1, batch_size=4,
                eval_every=2, eval_test_samples=16, seed=5,
            ),
            profiler=profiler,
        )
        simulator.on_round_end(lambda *_: simulator.request_checkpoint_stop())
        with pytest.raises(ExperimentPaused):
            simulator.run()
        assert not tracemalloc.is_tracing()
        assert simulator.result.phase_seconds == profiler.totals != {}
        assert simulator.result.memory["tracemalloc_peak_bytes"] > 0


class TestScrubTelemetry:
    def test_resets_present_fields_to_empty_defaults(self):
        row = {
            "scheme": "jwins",
            "phase_seconds": {"train": 1.25},
            "round_phase_seconds": [{"round": 0.0, "train": 1.25}],
            "memory": {"peak_rss_bytes": 12345},
        }
        scrubbed = scrub_telemetry(row)
        assert scrubbed["scheme"] == "jwins"
        assert scrubbed["phase_seconds"] == {}
        assert scrubbed["round_phase_seconds"] == []
        assert scrubbed["memory"] == {}

    def test_absent_fields_stay_absent(self):
        # Legacy rows never carried the telemetry keys; scrubbing must not
        # invent them, or old stores would change bytes on rewrite.
        legacy = {"scheme": "jwins", "rounds_completed": 3}
        assert scrub_telemetry(legacy) == legacy

    def test_input_mapping_is_not_mutated(self):
        row = {"phase_seconds": {"train": 1.0}}
        scrub_telemetry(row)
        assert row["phase_seconds"] == {"train": 1.0}

    def test_field_list_matches_result_defaults(self):
        # Every telemetry field must exist on ExperimentResult with exactly
        # the empty default the scrub resets it to.
        from repro.simulation.metrics import ExperimentResult

        result = ExperimentResult(
            scheme="jwins", task="toy", num_nodes=2, rounds_completed=0
        )
        payload = result.to_dict()
        for name, default in TELEMETRY_RESULT_FIELDS.items():
            assert payload[name] == default()
