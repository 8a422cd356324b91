"""The record codec: every routed class's JSON form comes from its fields.

Round trips must be exact (equal objects, equal bytes), and a reader must
refuse an unknown key and a missing required key by name.
"""

from __future__ import annotations

import json
from dataclasses import fields

import numpy as np
import pytest

from repro.evaluation import WORKLOADS
from repro.exceptions import ConfigurationError
from repro.orchestration import ExperimentSpec, SchemeSpec
from repro.orchestration.schemes import SCHEME_REGISTRY
from repro.scenarios import SCENARIO_PRESETS, get_scenario
from repro.scenarios.fuzz import FuzzCase, generate_case
from repro.scenarios.schedule import (
    ByzantineWindow,
    NodeOutage,
    PartitionWindow,
    ScenarioSchedule,
    StragglerWindow,
)
from repro.simulation import ExperimentConfig, ExperimentResult
from repro.simulation.metrics import RoundRecord


def _bytes(record) -> str:
    return json.dumps(record.to_dict())


def _assert_exact_round_trip(record) -> None:
    rebuilt = type(record).from_dict(json.loads(_bytes(record)))
    assert rebuilt == record
    assert _bytes(rebuilt) == _bytes(record)


@pytest.fixture(scope="module")
def short_result() -> ExperimentResult:
    """A 3-round async churn-partition run: history and scenario rows filled."""

    spec = ExperimentSpec(
        "movielens",
        "jwins",
        {
            "num_nodes": 6,
            "degree": 2,
            "rounds": 3,
            "eval_every": 1,
            "eval_test_samples": 32,
            "execution": "async",
            "scenario": get_scenario("churn-partition", num_nodes=6, rounds=3).to_dict(),
        },
    )
    return spec.run()


@pytest.mark.parametrize("index", range(6))
def test_generated_fuzz_cases_round_trip_exactly(index):
    case = generate_case(seed=0, index=index, ensure_byzantine=index % 2 == 0)
    _assert_exact_round_trip(case)
    _assert_exact_round_trip(case.schedule)


@pytest.mark.parametrize("name", sorted(SCENARIO_PRESETS))
def test_every_scenario_preset_round_trips_exactly(name):
    _assert_exact_round_trip(get_scenario(name, num_nodes=8, rounds=12))


@pytest.mark.parametrize("name", list(SCHEME_REGISTRY))
def test_registry_scheme_specs_round_trip_exactly(name):
    _assert_exact_round_trip(SchemeSpec(name))


def test_a_run_result_round_trips_exactly(short_result):
    assert short_result.history and short_result.scenario_rounds
    _assert_exact_round_trip(short_result)
    for record in short_result.history:
        _assert_exact_round_trip(record)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_configs_write_their_fields_and_nested_schedule(name):
    """``ExperimentConfig`` is written (a snapshot's ``config``), never read back."""

    config = WORKLOADS[name].config
    scenario = get_scenario("churn-partition", config.num_nodes, config.rounds)
    data = json.loads(json.dumps(WORKLOADS[name].make_config(scenario=scenario).to_dict()))
    assert list(data) == [field.name for field in fields(ExperimentConfig)]
    assert data["scenario"] == scenario.to_dict()
    assert data["num_nodes"] == config.num_nodes and data["engine"] == config.engine
    assert not hasattr(ExperimentConfig, "from_dict")


def test_numbers_are_written_as_native_python_numbers():
    record = RoundRecord(np.int64(4), *[np.float64(0.25)] * 7)
    data = record.to_dict()
    assert type(data["round_index"]) is int
    assert all(type(data[key]) is float for key in data if key != "round_index")
    window = StragglerWindow(start_round=np.int64(0), end_round=3, nodes=(1,), slowdown=2)
    assert window.to_dict() == {"start_round": 0, "end_round": 3, "nodes": [1], "slowdown": 2.0}
    assert type(window.to_dict()["slowdown"]) is float


def test_containers_are_json_lists_and_read_back_as_annotated():
    window = PartitionWindow(start_round=0, end_round=2, groups=((0, 1), (2,)))
    assert window.to_dict()["groups"] == [[0, 1], [2]]
    assert PartitionWindow.from_dict(window.to_dict()).groups == ((0, 1), (2,))
    data = ExperimentConfig(compute_speed_range=(1, 2)).to_dict()
    assert data["compute_speed_range"] == [1.0, 2.0]
    assert all(type(value) is float for value in data["compute_speed_range"])


def test_missing_optional_keys_take_the_field_default():
    assert NodeOutage.from_dict({"node": 1, "start_round": 0}).end_round is None
    assert SchemeSpec.from_dict({"name": "topk"}) == SchemeSpec("topk")
    assert ScenarioSchedule.from_dict({}) == ScenarioSchedule()


#: One instance per routed class, for the refusal checks.
SAMPLES = {
    "RoundRecord": RoundRecord(3, 0.5, 1.25, 1.5, 1024.0, 64.0, 2.5, 0.37),
    "NodeOutage": NodeOutage(node=1, start_round=2, end_round=4),
    "PartitionWindow": PartitionWindow(start_round=0, end_round=3, groups=((0, 1), (2, 3))),
    "StragglerWindow": StragglerWindow(start_round=1, end_round=4, nodes=(2,), slowdown=3.0),
    "ByzantineWindow": ByzantineWindow(start_round=0, end_round=2, nodes=(1,), mode="sign-flip"),
    "ScenarioSchedule": get_scenario("churn-partition", num_nodes=8, rounds=12),
    "FuzzCase": generate_case(seed=0, index=0),
    "SchemeSpec": SchemeSpec("choco", {"fraction": 0.2}),
    "ExperimentResult": ExperimentResult("jwins", "movielens", 4, 2),
}

#: A field each class cannot be read without (``None``: every field has a default).
REQUIRED = {
    "RoundRecord": "average_shared_fraction",
    "NodeOutage": "node",
    "PartitionWindow": "groups",
    "StragglerWindow": "slowdown",
    "ByzantineWindow": "mode",
    "ScenarioSchedule": None,
    "FuzzCase": "schedule",
    "SchemeSpec": "name",
    "ExperimentResult": "rounds_completed",
}


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_an_unknown_key_is_refused_by_name(name):
    record = SAMPLES[name]
    data = {**record.to_dict(), "weather": "rainy"}
    with pytest.raises(ConfigurationError, match=f"unknown {name} field.*weather"):
        type(record).from_dict(data)


@pytest.mark.parametrize("name", sorted(name for name in REQUIRED if REQUIRED[name]))
def test_a_missing_required_key_is_refused_by_name(name):
    record = SAMPLES[name]
    data = record.to_dict()
    del data[REQUIRED[name]]
    with pytest.raises(ConfigurationError, match=f"{name} record is missing field '{REQUIRED[name]}'"):
        type(record).from_dict(data)


def test_a_record_must_be_a_mapping():
    with pytest.raises(ConfigurationError, match="NodeOutage record must be a mapping, got list"):
        ScenarioSchedule.from_dict({"outages": [[1, 0, 2]]})
    with pytest.raises(ConfigurationError, match="FuzzCase record must be a mapping"):
        FuzzCase.from_dict("case")
