"""The forensic trace differ: first-divergence localization + causal backtrace.

Hand-built traces pin the localization logic exactly (field drift, arrays,
reordered kinds, truncation, the backtrace's agree/diverged verdicts); a real
double-run pins the happy path (identical traces stay identical through the
differ, wall sections ignored).
"""

from __future__ import annotations

import json

import pytest

from repro.baselines.full_sharing import full_sharing_factory
from repro.observability.forensics import (
    SMALL_ARRAY_LIMIT,
    FieldDrift,
    diff_traces,
)
from repro.observability.trace import TraceEmitter
from repro.simulation.experiment import ExperimentConfig
from repro.simulation.runner import run_experiment
from tests.conftest import make_toy_task


def _manifest(seq=0, **extra):
    return {"kind": "manifest", "seq": seq, "scheme": "jwins", "seed": 7, **extra}


def _message(seq, sender, receiver, nbytes=100.0, now=0.1):
    return {
        "kind": "message", "seq": seq, "sender": sender, "receiver": receiver,
        "bytes": nbytes, "now": now,
    }


def _round(seq, round_index, node=0, now=0.2):
    return {"kind": "round", "seq": seq, "round": round_index, "node": node, "now": now}


def _evaluate(seq, round_index, accuracy=0.5, loss=1.0):
    return {
        "kind": "evaluate", "seq": seq, "round": round_index,
        "accuracy": accuracy, "loss": loss, "bytes_per_node": 100.0,
    }


def _trace(rounds=2, nodes=2):
    """A tiny synthetic trace: per round, node deliveries then round ends."""

    records = [_manifest()]
    seq = 1
    for round_index in range(1, rounds + 1):
        for sender in range(nodes):
            records.append(_message(seq, sender, (sender + 1) % nodes))
            seq += 1
        for node in range(nodes):
            records.append(_round(seq, round_index, node))
            seq += 1
        records.append(_evaluate(seq, round_index))
        seq += 1
    records.append({"kind": "run_end", "seq": seq, "rounds_completed": rounds})
    return records


def test_identical_traces_report_identical():
    diff = diff_traces(_trace(), _trace())
    assert diff.identical
    assert diff.seq is None and diff.drifts == []
    assert "IDENTICAL" in diff.render()


def test_wall_sections_are_ignored():
    a, b = _trace(), _trace()
    a[0]["wall"] = {"unix_time": 1.0}
    b[0]["wall"] = {"unix_time": 999.0}
    assert diff_traces(a, b).identical


def test_field_drift_is_localized_with_numeric_deltas():
    a, b = _trace(), _trace()
    target = next(r for r in b if r["kind"] == "evaluate" and r["round"] == 2)
    target["loss"] += 1e-3
    diff = diff_traces(a, b, a_label="ref", b_label="bad")
    assert not diff.identical
    assert diff.kind == "evaluate" and diff.reason == "field-drift"
    assert diff.seq == target["seq"] and diff.round == 2
    (drift,) = diff.drifts
    assert drift.field == "loss"
    assert drift.abs_delta == pytest.approx(1e-3)
    assert drift.rel_delta == pytest.approx(1e-3 / (1.0 + 1e-3))
    # All deliveries before the evaluate matched, so the verdict is local.
    assert "node-local computation" in diff.origin
    rendered = diff.render()
    assert "ref" in rendered and "bad" in rendered
    assert "field 'loss'" in rendered


def test_divergent_message_names_the_sender_in_the_backtrace():
    a, b = _trace(), _trace()
    target = next(r for r in b if r["kind"] == "message" and r["seq"] > 5)
    target["bytes"] += 8.0
    diff = diff_traces(a, b)
    assert diff.kind == "message" and diff.reason == "field-drift"
    assert f"sender {target['sender']}" in diff.origin
    deliveries = [
        delivery
        for entry in diff.backtrace
        for delivery in entry["deliveries"]
    ]
    divergent = [d for d in deliveries if not d["agree"]]
    assert [d["seq"] for d in divergent] == [target["seq"]]
    assert divergent[0]["sender"] == target["sender"]
    assert "DIVERGED" in diff.render()


def test_truncated_trace_is_classified():
    a = _trace()
    b = _trace()[:-3]
    diff = diff_traces(a, b)
    assert not diff.identical
    assert diff.reason == "truncated"
    assert diff.a_record is not None and diff.b_record is None
    assert diff.seq == b[-1]["seq"] + 1
    assert "ends before" in diff.origin


def test_reordered_records_are_a_kind_mismatch():
    a, b = _trace(), _trace()
    # Swap a message and a round record in b: same seqs, different kinds.
    first_round = next(i for i, r in enumerate(b) if r["kind"] == "round")
    b[first_round - 1], b[first_round] = (
        {**b[first_round], "seq": b[first_round - 1]["seq"]},
        {**b[first_round - 1], "seq": b[first_round]["seq"]},
    )
    diff = diff_traces(a, b)
    assert diff.reason == "kind-mismatch"
    assert "/" in diff.kind
    assert "schedules" in diff.origin


def test_small_arrays_get_per_element_drift():
    a, b = _trace(), _trace()
    a[0]["hist"] = [1.0, 2.0, 3.0]
    b[0]["hist"] = [1.0, 2.5, 3.0]
    diff = diff_traces(a, b)
    (drift,) = diff.drifts
    assert drift.field == "hist[1]"
    assert drift.abs_delta == pytest.approx(0.5)


def test_large_arrays_get_a_summary_drift():
    n = SMALL_ARRAY_LIMIT + 4
    a, b = _trace(), _trace()
    a[0]["hist"] = [0.0] * n
    changed = [0.0] * n
    changed[3] = 0.25
    changed[7] = 0.5
    b[0]["hist"] = changed
    diff = diff_traces(a, b)
    (drift,) = diff.drifts
    assert drift.field == "hist"
    assert "first at index 3" in drift.note
    assert "2/" in drift.note and "max abs delta 0.5" in drift.note


def test_missing_field_is_reported_as_a_note():
    a, b = _trace(), _trace()
    del b[0]["seed"]
    diff = diff_traces(a, b)
    assert any(
        drift.field == "seed" and drift.note == "field present in only one trace"
        for drift in diff.drifts
    )


def test_to_dict_round_trips_through_json():
    a, b = _trace(), _trace()
    b[-1]["rounds_completed"] += 1
    diff = diff_traces(a, b)
    document = json.loads(json.dumps(diff.to_dict(), sort_keys=True))
    assert document["identical"] is False
    assert document["seq"] == diff.seq
    assert document["drifts"][0]["field"] == "rounds_completed"


def test_real_double_run_diffs_identical(tmp_path):
    config = ExperimentConfig(
        num_nodes=4, degree=2, rounds=2, local_steps=1, batch_size=4,
        eval_every=1, eval_test_samples=16, seed=5,
    )
    paths = []
    for index in range(2):
        task = make_toy_task(seed=5)
        path = tmp_path / f"run{index}.trace.jsonl"
        run_experiment(task, full_sharing_factory(), config, observers=(TraceEmitter(path),))
        paths.append(path)
    diff = diff_traces(paths[0], paths[1])
    assert diff.identical
    assert diff.a_records == diff.b_records > 0


def test_field_drift_describe_is_stable():
    drift = FieldDrift(field="loss", a_value=1.0, b_value=2.0, abs_delta=1.0, rel_delta=0.5)
    assert "field 'loss'" in drift.describe()
    assert drift.to_dict() == {
        "field": "loss", "a": 1.0, "b": 2.0, "abs_delta": 1.0, "rel_delta": 0.5,
    }
