"""Scenario forking: replay one trained state under many what-if futures.

A checkpoint taken at round *k* embeds the :class:`~repro.orchestration.spec.
ExperimentSpec` that produced it.  Forking builds a *mutated* spec — same
workload, scheme, seed and deployment shape, but a different value on one or
more config axes (typically the scenario schedule, the round budget or the
message-drop rate) — and resumes the snapshot under it, so the common prefix
of the run is never re-paid.

Identity rules, pinned by tests:

* a fork with **no** mutations produces a result byte-identical to a plain
  resume of the snapshot;
* any fork carries a ``lineage`` entry (parent spec hash, snapshot hash,
  fork round) that participates in the forked spec's content hash, so its
  store row can never collide with the parent's or with a from-scratch run
  of the mutated configuration.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

from repro.exceptions import CheckpointError, ConfigurationError
from repro.orchestration.spec import ExperimentSpec
from repro.simulation import ExperimentResult

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.checkpoint.snapshot import SimulationSnapshot
    from repro.observability.metrics import MetricsRegistry
    from repro.observability.status import CellStatusWriter

__all__ = ["build_forked_spec", "run_fork"]

#: Config fields a fork must not change: they define the deployment shape the
#: snapshot's state is only valid for.
_STRUCTURAL_FIELDS = ("num_nodes", "execution", "partition", "shards_per_node", "seed")


def build_forked_spec(
    snapshot: "SimulationSnapshot", mutations: Mapping[str, Any] | None = None
) -> ExperimentSpec:
    """The mutated spec a fork of ``snapshot`` runs under.

    ``mutations`` maps :class:`~repro.simulation.ExperimentConfig` field names
    to new values (e.g. ``{"scenario": schedule.to_dict()}``).  The parent's
    resolved experiment and task seeds are pinned explicitly so every RNG
    stream derivation after the fork point matches the parent's — without
    this, the forked spec's new content hash would re-seed the run and break
    the fork-equals-resume guarantee.
    """

    if snapshot.spec is None:
        raise CheckpointError(
            "snapshot does not embed an experiment spec (it was captured from a "
            "directly constructed Simulator); only spec-driven snapshots can fork"
        )
    parent = ExperimentSpec.from_dict(snapshot.spec)
    mutations = dict(mutations or {})
    for name in _STRUCTURAL_FIELDS:
        if name in mutations:
            raise ConfigurationError(
                f"a fork cannot change the structural config field {name!r}; "
                "it defines the deployment the snapshot's state belongs to"
            )
    overrides = dict(parent.overrides)
    overrides.update(mutations)
    overrides["seed"] = parent.resolved_seed()
    return ExperimentSpec(
        workload=parent.workload,
        scheme=parent.scheme,
        overrides=overrides,
        task_seed=parent.resolved_task_seed(),
        lineage={
            "parent": parent.content_hash(),
            "snapshot": snapshot.content_hash(),
            "round": int(snapshot.rounds_completed),
        },
    )


def run_fork(
    snapshot: "SimulationSnapshot",
    mutations: Mapping[str, Any] | None = None,
    metrics: "MetricsRegistry | None" = None,
    heartbeat: "CellStatusWriter | None" = None,
) -> tuple[ExperimentSpec, ExperimentResult]:
    """Fork ``snapshot`` under ``mutations`` and run the future to completion.

    Returns the forked spec (hash-distinct from the parent whenever lineage
    or mutations differ) together with its result.  ``metrics`` (attached as
    an observer) and ``heartbeat`` attach run telemetry as on a plain run
    (and stay outside the determinism contract).  The CLI's ``fork`` builds the same
    spec with :func:`build_forked_spec` and runs it as a one-cell
    :func:`~repro.orchestration.run_sweep`, with checkpointing, a trace and a
    store of its own.
    """

    spec = build_forked_spec(snapshot, mutations)
    observers = () if metrics is None else (metrics,)
    result = spec.run(snapshot=snapshot, observers=observers, heartbeat=heartbeat)
    return spec, result
