"""Forking: replaying a snapshot under a mutated config axis.

Pinned guarantees: an unchanged fork is bit-identical to a plain resume (and
therefore to the uninterrupted run), and any fork's spec hash is distinct
from both the parent's and a from-scratch run of the mutated configuration.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.checkpoint import CheckpointManager
from repro.cli import main
from repro.exceptions import CheckpointError, ConfigurationError
from repro.orchestration import (
    ExperimentSpec,
    ResultStore,
    SchemeSpec,
    build_forked_spec,
    run_fork,
    run_sweep,
)
from repro.scenarios import get_scenario

ROUNDS = 5

BASE_OVERRIDES = {
    "num_nodes": 4,
    "degree": 2,
    "rounds": ROUNDS,
    "eval_every": 2,
    "eval_test_samples": 32,
}


def make_spec(**extra) -> ExperimentSpec:
    return ExperimentSpec(
        "movielens",
        SchemeSpec("jwins", {}, label="jwins"),
        {**BASE_OVERRIDES, **extra},
    )


@pytest.fixture
def paused(tmp_path, pause_after_round):
    """A spec paused at round 2 with its snapshot in a checkpoint dir."""

    spec = make_spec()
    pause_after_round(2)
    outcome = run_sweep(
        [spec],
        ResultStore(),
        checkpoint_dir=str(tmp_path / "ck"),
        checkpoint_every=1,
    )
    pause_after_round(None)
    assert outcome.paused == [spec]
    snapshot = CheckpointManager(tmp_path / "ck").load_for_spec(spec)
    assert snapshot is not None and snapshot.rounds_completed == 2
    return spec, snapshot


def test_unchanged_fork_is_bit_identical_to_resume(paused):
    spec, snapshot = paused
    uninterrupted = spec.run()
    forked_spec, forked_result = run_fork(snapshot)
    assert forked_result.to_dict() == uninterrupted.to_dict()
    # ... while the spec identity records the fork.
    assert forked_spec.content_hash() != spec.content_hash()
    assert forked_spec.lineage["parent"] == spec.content_hash()
    assert forked_spec.lineage["snapshot"] == snapshot.content_hash()
    assert forked_spec.lineage["round"] == 2


def test_fork_spec_round_trips_with_lineage(paused):
    spec, snapshot = paused
    forked = build_forked_spec(snapshot)
    clone = ExperimentSpec.from_dict(forked.to_dict())
    assert clone == forked
    assert clone.content_hash() == forked.content_hash()


def test_lineage_free_spec_hash_is_unchanged():
    """Adding the lineage field must not shift historical content hashes."""

    spec = make_spec()
    assert "lineage" not in spec.to_dict()
    assert ExperimentSpec.from_dict(spec.to_dict()).content_hash() == spec.content_hash()


def test_scenario_fork_produces_valid_distinct_row(paused, tmp_path):
    spec, snapshot = paused
    scenario = get_scenario("churn", num_nodes=4, rounds=ROUNDS).to_dict()
    forked_spec, forked_result = run_fork(snapshot, {"scenario": scenario})

    assert forked_result.rounds_completed == ROUNDS
    assert forked_result.scenario_rounds  # the replayed future saw churn
    # Hash-distinct from the parent, from the unchanged fork, and from a
    # from-scratch run of the mutated config (no lineage).
    unchanged = build_forked_spec(snapshot)
    from_scratch = make_spec(scenario=scenario, seed=spec.resolved_seed())
    hashes = {
        spec.content_hash(),
        unchanged.content_hash(),
        forked_spec.content_hash(),
        from_scratch.content_hash(),
    }
    assert len(hashes) == 4

    # The forked row is a valid store row.
    store = ResultStore(tmp_path / "forks.jsonl")
    store.put(forked_spec, forked_result)
    reloaded = ResultStore(tmp_path / "forks.jsonl")
    assert reloaded.get(forked_spec).to_dict() == forked_result.to_dict()
    (row,) = [json.loads(line) for line in (tmp_path / "forks.jsonl").read_text().splitlines()]
    assert ExperimentSpec.from_dict(row["spec"]).lineage == forked_spec.lineage


def test_fork_trace_dir_never_clobbers_the_parent_cell_trace(paused, tmp_path, capsys):
    """Regression: a fork traced into the parent sweep's --trace directory used
    to need an explicit filename; deriving it from the *forked* spec's hash
    (lineage included) guarantees it can never overwrite the parent's file."""

    spec, snapshot = paused
    trace_dir = tmp_path / "traces"
    trace_dir.mkdir()
    parent_trace = trace_dir / f"{spec.content_hash()}.trace.jsonl"
    parent_trace.write_text('{"kind": "manifest"}\n', encoding="utf-8")
    parent_bytes = parent_trace.read_bytes()
    snapshot_path = snapshot.save(tmp_path / "parent.ckpt")

    assert main(["fork", "--snapshot", str(snapshot_path), "--trace", str(trace_dir)]) == 0
    capsys.readouterr()
    forked_spec = build_forked_spec(snapshot)

    assert forked_spec.content_hash() != spec.content_hash()
    forked_trace = trace_dir / f"{forked_spec.content_hash()}.trace.jsonl"
    assert forked_trace.exists() and forked_trace != parent_trace
    assert parent_trace.read_bytes() == parent_bytes  # untouched
    lines = forked_trace.read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[0])["kind"] == "manifest"
    assert json.loads(lines[-1])["kind"] == "run_end"


def test_fork_can_extend_the_round_budget(paused):
    spec, snapshot = paused
    forked_spec, forked_result = run_fork(snapshot, {"rounds": ROUNDS + 3})
    assert forked_result.rounds_completed == ROUNDS + 3


def test_fork_rejects_structural_mutations(paused):
    spec, snapshot = paused
    for field in ("num_nodes", "execution", "seed"):
        with pytest.raises(ConfigurationError, match="structural"):
            build_forked_spec(snapshot, {field: 8})


def test_fork_rejects_exhausted_round_budget(paused):
    spec, snapshot = paused
    with pytest.raises(CheckpointError, match="completed"):
        run_fork(snapshot, {"rounds": 1})


def test_fork_requires_an_embedded_spec(paused):
    spec, snapshot = paused
    snapshot = replace(snapshot, spec=None)
    with pytest.raises(CheckpointError, match="embed"):
        build_forked_spec(snapshot)


def test_a_forked_spec_resumes_only_the_snapshot_its_lineage_names(paused, tmp_path):
    spec, snapshot = paused
    forked = build_forked_spec(snapshot, {"rounds": ROUNDS + 1})
    assert forked.run(snapshot=snapshot).to_dict() == run_fork(
        snapshot, {"rounds": ROUNDS + 1}
    )[1].to_dict()

    other = make_spec(seed=11)
    other.run(checkpoint_dir=str(tmp_path / "other"), checkpoint_every=2)
    other_snapshot = CheckpointManager(tmp_path / "other").load_for_spec(other)
    with pytest.raises(CheckpointError, match="lineage does not name"):
        forked.run(snapshot=other_snapshot)
    snapshot = replace(snapshot, rounds_completed=1)  # the right cell, another round
    with pytest.raises(CheckpointError, match="lineage does not name"):
        forked.run(snapshot=snapshot)
