"""Exact round-trip tests for the experiment (de)serialization layer.

The JSONL result store persists every run as ``to_dict()`` output, so the
round trips must be *exact*: ``from_dict(json.loads(json.dumps(to_dict(x))))``
has to compare equal to ``x``, bit for bit, including numpy-scalar inputs.
"""

from __future__ import annotations

import json

import numpy as np

from repro.simulation import ExperimentResult, RoundRecord


def _json_round_trip(data):
    return json.loads(json.dumps(data))


def _record(round_index: int = 4) -> RoundRecord:
    return RoundRecord(
        round_index=round_index,
        test_accuracy=float(np.float64(0.62347190112)),
        test_loss=1.0831,
        train_loss=0.77,
        cumulative_bytes_per_node=123456.789,
        cumulative_metadata_bytes_per_node=np.float64(1024.5),
        simulated_time_seconds=17.25,
        average_shared_fraction=0.37,
    )


class TestRoundRecordRoundTrip:
    def test_round_trip_is_exact(self):
        record = _record()
        rebuilt = RoundRecord.from_dict(_json_round_trip(record.to_dict()))
        assert rebuilt == record

    def test_numpy_scalars_become_native_floats(self):
        data = _record().to_dict()
        assert all(isinstance(v, (int, float)) for v in data.values())
        assert not any(isinstance(v, np.generic) for v in data.values())


class TestExperimentResultRoundTrip:
    def _result(self) -> ExperimentResult:
        return ExperimentResult(
            scheme="jwins",
            task="cifar10",
            num_nodes=8,
            rounds_completed=16,
            history=[_record(4), _record(8), _record(16)],
            total_bytes=np.float64(987654.25),
            total_metadata_bytes=1234.0,
            total_values_bytes=986420.25,
            simulated_time_seconds=321.5,
            target_accuracy=0.6,
            reached_target_at_round=8,
            execution="async",
            per_node_time_seconds=[310.0, 321.5, 299.875],
        )

    def test_round_trip_is_exact(self):
        result = self._result()
        rebuilt = ExperimentResult.from_dict(_json_round_trip(result.to_dict()))
        assert rebuilt == result
        # Derived views keep working on the rebuilt object.
        assert rebuilt.final_accuracy == result.final_accuracy
        assert rebuilt.clock_skew_seconds == result.clock_skew_seconds

    def test_none_fields_round_trip(self):
        result = ExperimentResult(
            scheme="full-sharing", task="toy", num_nodes=4, rounds_completed=0
        )
        rebuilt = ExperimentResult.from_dict(_json_round_trip(result.to_dict()))
        assert rebuilt == result
        assert rebuilt.target_accuracy is None
        assert rebuilt.reached_target_at_round is None

    def test_real_run_round_trip_is_exact(self, toy_task, small_config):
        from repro.baselines import full_sharing_factory
        from repro.simulation import run_experiment

        result = run_experiment(toy_task, full_sharing_factory(), small_config)
        rebuilt = ExperimentResult.from_dict(_json_round_trip(result.to_dict()))
        assert rebuilt == result
