"""The unit of work the orchestration layer schedules: one experiment cell.

An :class:`ExperimentSpec` is a *declarative* description of one
``run_experiment`` call: a workload name, a scheme reference (registry name +
parameters) and a set of :class:`~repro.simulation.ExperimentConfig` field
overrides.  It is JSON-serializable both ways, so it can cross a
``multiprocessing`` boundary, live in a JSONL store and be rebuilt later.

Two properties make resumable sweeps work:

* :meth:`ExperimentSpec.content_hash` — a SHA-256 over the canonical JSON of
  the spec.  It is the store key: re-running a sweep skips cells whose hash is
  already stored, and any config change yields a fresh hash (automatic
  invalidation).
* :meth:`ExperimentSpec.resolved_seed` — deterministic per-spec seeding.  An
  explicit ``seed`` override wins; otherwise the seed is derived from the
  content hash, so distinct cells decorrelate while every re-run (serial or
  parallel, any worker count) sees the identical seed.

A sweep repeats one task across schemes and config axes, so
:meth:`ExperimentSpec.build` takes the task from a small per-process memo
keyed by (workload, task seed), and every dataset array of a memoized task is
read-only: a cell that writes into shared data raises instead of corrupting
the next cell.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.core.interface import SchemeFactory
from repro.datasets.base import LearningTask
from repro.evaluation.workloads import Workload, get_workload
from repro.exceptions import CheckpointError, ConfigurationError
from repro.orchestration.schemes import SchemeSpec
from repro.simulation import ExperimentConfig, ExperimentResult, run_experiment
from repro.utils.records import read_fields

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.checkpoint.snapshot import SimulationSnapshot
    from repro.observability.status import CellStatusWriter

__all__ = ["ExperimentSpec"]


def _jsonify(value: Any) -> Any:
    """Normalize ``value`` to the JSON type system (tuples become lists)."""

    if isinstance(value, Mapping):
        return {str(key): _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise ConfigurationError(
        f"override value {value!r} is not JSON-serializable; "
        "sweep overrides must be plain numbers, strings, booleans, lists or mappings"
    )


@functools.lru_cache(maxsize=4)
def _task(workload: str, seed: int) -> LearningTask:
    """The task ``workload`` builds from ``seed``, built once per process.

    Bounded to the few most recent (workload, seed) pairs: a sweep interleaves
    a handful of tasks.  Pool workers each hold their own memo.
    """

    task = get_workload(workload).make_task(seed=seed)
    for dataset in (task.train, task.test):
        for array in (dataset.inputs, dataset.targets, dataset.client_ids):
            if array is not None:
                array.flags.writeable = False
    return task


@dataclass(frozen=True)
class ExperimentSpec:
    """One cell of a sweep: ``(workload, scheme, config overrides)``.

    Attributes
    ----------
    workload:
        Name in :data:`~repro.evaluation.workloads.WORKLOADS`.
    scheme:
        The scheme to run, as a serializable :class:`SchemeSpec`.
    overrides:
        :class:`~repro.simulation.ExperimentConfig` field overrides applied on
        top of the workload's default configuration (JSON values only, read
        back through the record codec when the config is built).  A
        ``"scenario"`` override travels as the schedule's exact ``to_dict``
        form — including Byzantine windows and trace-compiled outages — so
        hostile environments are sweepable axes with stable content hashes,
        which is what both the determinism gate and the scenario fuzzer
        (:mod:`repro.scenarios.fuzz`) rely on.
    task_seed:
        Seed for the dataset/task construction.  ``None`` (the default) ties
        it to the experiment seed, matching ``run_experiment`` call sites that
        build the task with the config's seed.
    lineage:
        Fork provenance: ``{"parent": <spec hash>, "snapshot": <snapshot
        hash>, "round": k}`` when this spec was created by replaying a
        checkpoint under a mutated config axis.  ``None`` (and absent from
        :meth:`to_dict`) for ordinary specs, so pre-existing content hashes
        are unchanged; when set it participates in the hash, making a forked
        cell distinct from both its parent and a from-scratch run of the
        mutated configuration (whose common prefix it did not re-execute).
    """

    workload: str
    scheme: SchemeSpec
    overrides: dict[str, Any] = field(default_factory=dict)
    task_seed: int | None = None
    lineage: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        get_workload(self.workload)  # fail fast on typos
        object.__setattr__(self, "scheme", SchemeSpec.coerce(self.scheme))
        # Canonicalize overrides so hashing is insensitive to tuple-vs-list
        # and the spec equals its own JSON round trip.
        object.__setattr__(self, "overrides", _jsonify(dict(self.overrides)))
        if self.lineage is not None:
            object.__setattr__(self, "lineage", _jsonify(dict(self.lineage)))

    # -- identity ------------------------------------------------------------------
    # Hand-written, not the record codec's: an absent lineage is omitted, not null.
    def to_dict(self) -> dict[str, Any]:
        """JSON-safe representation; exact inverse of :meth:`from_dict`."""

        data = {
            "workload": self.workload,
            "scheme": self.scheme.to_dict(),
            "overrides": dict(self.overrides),
            "task_seed": self.task_seed,
        }
        if self.lineage is not None:
            data["lineage"] = dict(self.lineage)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_dict` output (hashes match exactly)."""

        return cls(
            workload=data["workload"],
            scheme=SchemeSpec.from_dict(data["scheme"]),
            overrides=dict(data.get("overrides", {})),
            task_seed=data.get("task_seed"),
            lineage=data.get("lineage"),
        )

    def canonical_json(self) -> str:
        """Canonical serialization: sorted keys, no whitespace."""

        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def content_hash(self) -> str:
        """SHA-256 hex digest of :meth:`canonical_json` — the store key."""

        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    @property
    def label(self) -> str:
        """Short human-readable cell name used in logs and summaries."""

        return f"{self.workload}/{self.scheme.label}"

    # -- seeding -------------------------------------------------------------------
    def resolved_seed(self) -> int:
        """The experiment seed this spec runs under (see the module docstring)."""

        if "seed" in self.overrides:
            return int(self.overrides["seed"])
        return int(self.content_hash()[:8], 16) % (2**31 - 1) + 1

    def resolved_task_seed(self) -> int:
        """The dataset-generation seed: ``task_seed`` if set, else the run seed."""

        return self.task_seed if self.task_seed is not None else self.resolved_seed()

    # -- materialization -----------------------------------------------------------
    def config(self) -> ExperimentConfig:
        """The validated configuration: the workload's, with the overrides applied.

        The overrides are the config's JSON form (a scenario travels as its
        to_dict mapping), read back field by field with the resolved seed; an
        unknown field, an unreadable value or an invalid configuration raises
        :class:`~repro.exceptions.ConfigurationError`.  No task is built.
        """

        try:
            overrides = read_fields(
                ExperimentConfig, {**self.overrides, "seed": self.resolved_seed()}
            )
        except (ConfigurationError, TypeError, ValueError) as error:
            raise ConfigurationError(
                f"invalid override for spec {self.label!r}: {error}"
            ) from error
        return replace(get_workload(self.workload).config, **overrides)

    def build(self) -> tuple[LearningTask, SchemeFactory, ExperimentConfig, Workload]:
        """Materialize the task, scheme factory and validated configuration.

        The task is shared with every other build of the same workload and
        task seed in this process, and its dataset arrays are read-only.
        """

        config = self.config()
        workload = get_workload(self.workload)
        task = _task(workload.name, self.resolved_task_seed())
        return task, self.scheme.build(), config, workload

    def run(
        self,
        checkpoint_dir: "str | None" = None,
        checkpoint_every: int = 0,
        snapshot: "SimulationSnapshot | None" = None,
        observers: Sequence[object] = (),
        heartbeat: "CellStatusWriter | None" = None,
    ) -> ExperimentResult:
        """Execute this cell and return its result.

        With ``checkpoint_dir`` set, the run becomes preemptible: snapshots
        land under the spec's content hash every ``checkpoint_every`` global
        rounds (and on a requested stop, which raises
        :class:`~repro.exceptions.ExperimentPaused`), and an existing
        snapshot for this spec is resumed automatically — mid-spec resume is
        byte-identical to an uninterrupted run.  An explicit ``snapshot``
        wins over the directory lookup.  A snapshot is accepted when it embeds
        this spec, or when this spec's ``lineage`` names it as the fork point
        (parent spec hash and round): the ``fork`` workflow, which replays a
        parent spec's snapshot under a mutated config.

        ``observers`` (e.g. a metrics registry, a trace emitter) and
        ``heartbeat`` attach the telemetry layer (see
        :mod:`repro.observability`); both stay outside the determinism
        contract.
        """

        from repro.checkpoint.manager import CheckpointManager

        task, factory, config, _ = self.build()
        if checkpoint_every > 0 and checkpoint_dir is None:
            raise ConfigurationError(
                "checkpoint_every requires a checkpoint_dir to save snapshots into"
            )
        manager = None if checkpoint_dir is None else CheckpointManager(checkpoint_dir)
        key = self.content_hash()
        if snapshot is None and manager is not None:
            snapshot = manager.load_for_spec(self)
        if snapshot is not None:
            embedded = snapshot.spec_hash()
            lineage = self.lineage or {}
            fork_point = (lineage.get("parent"), lineage.get("round"))
            if embedded != key and fork_point != (embedded, snapshot.rounds_completed):
                raise CheckpointError(
                    f"snapshot embeds spec hash {str(embedded)[:12]}... at round "
                    f"{snapshot.rounds_completed}, which does not match this invocation: "
                    f"the spec hashes to {key[:12]}... and its lineage does not name that "
                    "fork point; refusing to resume a different experiment (re-run with "
                    "the original flags, or use fork to replay under a changed config)"
                )
        if snapshot is not None and manager is not None:
            manager.record_lineage(
                {
                    "key": key,
                    "action": "resume",
                    "round": int(snapshot.rounds_completed),
                    "snapshot_hash": snapshot.content_hash(),
                    "spec_hash": snapshot.spec_hash(),
                }
            )
        return run_experiment(
            task,
            factory,
            config,
            scheme_name=self.scheme.label,
            checkpoint_every=checkpoint_every,
            checkpoint_sink=None if manager is None else manager.sink_for(key),
            resume_from=snapshot,
            spec=self.to_dict(),
            observers=observers,
            heartbeat=heartbeat,
        )
