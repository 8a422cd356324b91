"""Tests for ExperimentSpec: hashing, seeding, serialization, materialization."""

import json

import pytest

from repro.exceptions import ConfigurationError
from repro.orchestration.schemes import SchemeSpec
from repro.orchestration.spec import ExperimentSpec

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
