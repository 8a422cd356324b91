"""Tests for ExperimentSpec: hashing, seeding, serialization, materialization."""

import json
from dataclasses import replace

import pytest

from repro.evaluation.workloads import WORKLOADS
from repro.exceptions import ConfigurationError
from repro.orchestration import spec as spec_module
from repro.orchestration.pool import run_sweep
from repro.orchestration.schemes import SchemeSpec
from repro.orchestration.spec import ExperimentSpec
from repro.orchestration.store import ResultStore
from repro.orchestration.sweep import Sweep

TINY = {"num_nodes": 4, "degree": 2, "rounds": 2, "eval_every": 1, "eval_test_samples": 32}


def _spec(**kwargs):
    defaults = dict(workload="movielens", scheme=SchemeSpec("jwins"), overrides=TINY)
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


class TestIdentity:
    def test_round_trip_through_json_is_exact(self):
        spec = _spec(task_seed=7)
        rebuilt = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        assert rebuilt.content_hash() == spec.content_hash()

    def test_hash_is_stable_across_tuple_vs_list_overrides(self):
        a = _spec(overrides={**TINY, "compute_speed_range": (1.0, 2.0)})
        b = _spec(overrides={**TINY, "compute_speed_range": [1.0, 2.0]})
        assert a == b
        assert a.content_hash() == b.content_hash()

    def test_hash_changes_with_any_field(self):
        base = _spec()
        assert base.content_hash() != _spec(workload="cifar10").content_hash()
        assert base.content_hash() != _spec(scheme=SchemeSpec("topk")).content_hash()
        assert (
            base.content_hash()
            != _spec(overrides={**TINY, "rounds": 3}).content_hash()
        )
        assert base.content_hash() != _spec(task_seed=5).content_hash()

    def test_unknown_workload_fails_at_construction(self):
        with pytest.raises(ConfigurationError, match="unknown workload"):
            _spec(workload="imagenet")

    def test_non_json_override_rejected(self):
        with pytest.raises(ConfigurationError, match="not JSON-serializable"):
            _spec(overrides={**TINY, "rounds": object()})

    def test_scheme_strings_are_coerced(self):
        assert ExperimentSpec("movielens", "jwins").scheme == SchemeSpec("jwins")

    def test_label(self):
        assert _spec().label == "movielens/jwins"


class TestSeeding:
    def test_explicit_seed_override_wins(self):
        spec = _spec(overrides={**TINY, "seed": 123})
        assert spec.resolved_seed() == 123

    def test_derived_seed_is_deterministic_and_positive(self):
        spec = _spec()
        assert spec.resolved_seed() == _spec().resolved_seed()
        assert spec.resolved_seed() >= 1

    def test_distinct_specs_get_distinct_derived_seeds(self):
        assert _spec().resolved_seed() != _spec(workload="cifar10").resolved_seed()

    def test_task_seed_defaults_to_experiment_seed(self):
        spec = _spec(overrides={**TINY, "seed": 9})
        assert spec.resolved_task_seed() == 9
        assert _spec(task_seed=3).resolved_task_seed() == 3


class TestMaterialization:
    def test_build_applies_overrides(self):
        task, factory, config, workload = _spec(overrides={**TINY, "seed": 5}).build()
        assert workload.name == "movielens"
        assert config.num_nodes == 4
        assert config.rounds == 2
        assert config.seed == 5
        assert task.name == "movielens"
        scheme = factory(0, 100, 1)
        assert hasattr(scheme, "prepare")

    def test_build_coerces_range_overrides(self):
        spec = _spec(
            overrides={**TINY, "execution": "async", "compute_speed_range": [1.0, 3.0]}
        )
        _, _, config, _ = spec.build()
        assert config.execution == "async"
        assert config.compute_speed_range == (1.0, 3.0)

    def test_unknown_override_field_raises_configuration_error(self):
        with pytest.raises(ConfigurationError, match="movielens/jwins"):
            _spec(overrides={**TINY, "warp_factor": 9}).build()

    @pytest.mark.parametrize("field,value", [("rounds", 2.5), ("num_nodes", "4")])
    def test_an_int_override_the_cast_would_change_is_refused(self, field, value):
        with pytest.raises(ConfigurationError, match="not an integer"):
            _spec(overrides={**TINY, field: value}).build()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("momentum", 0.9),
            ("time_model", {"kind": "uniform", "latency_seconds": 0.5}),
            ("stop_at_target", True),
        ],
    )
    def test_removed_config_fields_are_refused_by_name(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            _spec(overrides={**TINY, field: value}).build()

    def test_run_produces_result_with_scheme_label(self):
        result = _spec(overrides={**TINY, "seed": 2}).run()
        assert result.scheme == "jwins"
        assert result.rounds_completed == 2
        assert result.total_bytes > 0

    def test_same_spec_runs_identically(self):
        a = _spec(overrides={**TINY, "seed": 2}).run()
        b = _spec(overrides={**TINY, "seed": 2}).run()
        assert a.to_dict() == b.to_dict()


class TestTaskMemo:
    """`ExperimentSpec.build` builds each (workload, task seed) once per process."""

    @pytest.fixture(autouse=True)
    def cold_memo(self):
        spec_module._task.cache_clear()
        yield
        spec_module._task.cache_clear()

    @pytest.fixture
    def factory_calls(self, monkeypatch):
        calls = []
        workload = WORKLOADS["movielens"]

        def counting(seed):
            calls.append(seed)
            return workload.task_factory(seed)

        monkeypatch.setitem(WORKLOADS, "movielens", replace(workload, task_factory=counting))
        return calls

    def test_a_second_build_returns_the_same_task_without_building_it(self, factory_calls):
        first = _spec(task_seed=7).build()[0]
        again = _spec(task_seed=7, scheme=SchemeSpec("topk")).build()[0]
        assert again is first
        assert factory_calls == [7]

    def test_a_different_seed_builds_a_new_task_and_the_bound_evicts_old_ones(self, factory_calls):
        first = _spec(task_seed=1).build()[0]
        assert _spec(task_seed=2).build()[0] is not first
        assert factory_calls == [1, 2]
        bound = spec_module._task.cache_info().maxsize
        for seed in range(3, bound + 2):
            _spec(task_seed=seed).build()
        assert factory_calls == list(range(1, bound + 2))
        rebuilt = _spec(task_seed=1).build()[0]
        assert rebuilt is not first  # seed 1 was the oldest entry
        assert factory_calls[-1] == 1

    def test_a_write_into_a_memoized_array_raises(self):
        task = _spec(task_seed=3).build()[0]
        arrays = [
            array
            for dataset in (task.train, task.test)
            for array in (dataset.inputs, dataset.targets, dataset.client_ids)
            if array is not None
        ]
        assert len(arrays) == 6  # movielens groups samples by client
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[1]

    def test_the_workload_factory_itself_stays_uncached_and_writable(self):
        _spec(task_seed=3).build()
        workload = WORKLOADS["movielens"]
        task, other = workload.make_task(seed=3), workload.make_task(seed=3)
        assert task is not other
        task.train.inputs[0] = task.train.inputs[1]

    def test_a_two_worker_sweep_stores_the_bytes_of_a_serial_one(self, tmp_path):
        sweep = Sweep(
            name="memo", workloads=("movielens", "celeba"), schemes=("jwins", "full-sharing"),
            base_overrides=TINY, task_seed=5,
        )
        run_sweep(sweep, ResultStore(tmp_path / "serial.jsonl"), workers=1)
        assert spec_module._task.cache_info().misses == 2  # two tasks for four cells
        run_sweep(sweep, ResultStore(tmp_path / "pool.jsonl"), workers=2)
        spec_module._task.cache_clear()
        run_sweep(sweep, ResultStore(tmp_path / "cold.jsonl"), workers=1)
        serial = (tmp_path / "serial.jsonl").read_bytes()
        assert serial == (tmp_path / "pool.jsonl").read_bytes()
        assert serial == (tmp_path / "cold.jsonl").read_bytes()
