"""Tests for the JSONL result store: persistence, resume keys, corruption."""

import json

import pytest

from repro.orchestration.schemes import SchemeSpec
from repro.orchestration.spec import ExperimentSpec
from repro.orchestration.store import ResultStore
from repro.simulation import ExperimentResult

TINY = {"num_nodes": 4, "degree": 2, "rounds": 2, "eval_every": 1, "eval_test_samples": 32}


def _spec(seed=1):
    return ExperimentSpec("movielens", SchemeSpec("jwins"), {**TINY, "seed": seed})


def _result(scheme="jwins"):
    return ExperimentResult(
        scheme=scheme, task="movielens", num_nodes=4, rounds_completed=2, total_bytes=100.0
    )


def test_in_memory_store_round_trips():
    store = ResultStore()
    spec = _spec()
    store.put(spec, _result())
    assert len(store) == 1
    assert store.get(spec) == _result()


def test_persistence_across_instances(tmp_path):
    path = tmp_path / "results.jsonl"
    spec = _spec()
    ResultStore(path).put(spec, _result())
    reloaded = ResultStore(path)
    assert reloaded.get(spec) == _result()


def test_missing_spec_returns_none():
    store = ResultStore()
    assert store.get(_spec()) is None


def test_changed_spec_misses_the_store(tmp_path):
    path = tmp_path / "results.jsonl"
    store = ResultStore(path)
    store.put(_spec(seed=1), _result())
    # Any config change produces a different content hash: the old result is
    # invisible (invalidated), not silently reused.
    assert ResultStore(path).get(_spec(seed=2)) is None


def test_last_write_wins_per_key(tmp_path):
    path = tmp_path / "results.jsonl"
    store = ResultStore(path)
    spec = _spec()
    store.put(spec, _result())
    updated = _result()
    updated.total_bytes = 999.0
    store.put(spec, updated)
    reloaded = ResultStore(path)
    assert len(reloaded) == 1
    assert reloaded.get(spec).total_bytes == 999.0


def test_accepts_result_dicts():
    store = ResultStore()
    spec = _spec()
    store.put(spec, _result().to_dict())
    assert store.get(spec) == _result()


def test_truncated_final_line_is_discarded(tmp_path):
    path = tmp_path / "results.jsonl"
    store = ResultStore(path)
    store.put(_spec(seed=1), _result())
    store.put(_spec(seed=2), _result())
    # Simulate a writer killed mid-line.
    with path.open("a", encoding="utf-8") as handle:
        handle.write('{"key": "abc", "spec": {"wor')
    reloaded = ResultStore(path)
    assert len(reloaded) == 2
    assert reloaded.discarded_lines == 1


def test_torn_tail_is_cut_off_so_the_recomputed_row_survives(tmp_path):
    path = tmp_path / "results.jsonl"
    store = ResultStore(path)
    store.put(_spec(seed=1), _result())
    store.put(_spec(seed=2), _result())
    intact = path.read_bytes()
    # The writer was killed mid-append: the second row is torn, no newline.
    path.write_bytes(intact[:-40])

    reopened = ResultStore(path)
    assert (len(reopened), reopened.discarded_lines) == (1, 1)
    assert reopened.repaired_tail_bytes == len(intact.splitlines(keepends=True)[1]) - 40
    assert path.read_bytes() == intact.splitlines(keepends=True)[0]

    reopened.put(_spec(seed=2), _result())  # the lost cell is recomputed
    assert path.read_bytes() == intact
    final = ResultStore(path)
    assert (len(final), final.discarded_lines, final.repaired_tail_bytes) == (2, 0, 0)


def test_non_record_json_is_discarded(tmp_path):
    path = tmp_path / "results.jsonl"
    path.write_text(json.dumps({"not": "a record"}) + "\n", encoding="utf-8")
    reloaded = ResultStore(path)
    assert len(reloaded) == 0
    assert reloaded.discarded_lines == 1


def test_store_creates_parent_directories(tmp_path):
    path = tmp_path / "nested" / "dir" / "results.jsonl"
    ResultStore(path).put(_spec(), _result())
    assert path.exists()
