"""Checkpoint persistence: one latest snapshot per run, plus a lineage log.

A :class:`CheckpointManager` owns a directory of snapshot files, keyed by the
*run key* — the content hash of the :class:`~repro.orchestration.spec.ExperimentSpec`
for orchestration-driven runs.  Saving is atomic (write + rename) and keeps
only the latest snapshot per key: earlier boundaries are superseded, and the
history lives in the human-readable ``lineage.jsonl`` sidecar instead::

    {"key": "<run key>", "round": 3, "snapshot_hash": "...", "action": "save", ...}

The lineage file deliberately sits *next to* the snapshots, never inside the
result store: store rows must stay byte-identical between interrupted-and-
resumed and uninterrupted sweeps (the fourth determinism pillar), so resume
provenance cannot ride on them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.checkpoint.snapshot import SimulationSnapshot
from repro.exceptions import CheckpointError

__all__ = ["CheckpointManager"]

_SNAPSHOT_SUFFIX = ".ckpt"
_LINEAGE_FILE = "lineage.jsonl"


class CheckpointManager:
    """Directory-backed snapshot storage keyed by run (spec) content hash."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)

    # -- paths ---------------------------------------------------------------------
    def path_for(self, run_key: str) -> Path:
        """Where the latest snapshot of run ``run_key`` lives."""

        return self.directory / f"{run_key}{_SNAPSHOT_SUFFIX}"

    @property
    def lineage_path(self) -> Path:
        """Where the append-only checkpoint lineage log lives."""

        return self.directory / _LINEAGE_FILE

    # -- saving --------------------------------------------------------------------
    def save(
        self, snapshot: SimulationSnapshot, run_key: str, action: str = "save"
    ) -> Path:
        """Persist ``snapshot`` as the latest state of ``run_key``."""

        path = snapshot.save(self.path_for(run_key))
        self.record_lineage(
            {
                "key": run_key,
                "action": action,
                "round": int(snapshot.rounds_completed),
                "snapshot_hash": snapshot.content_hash(),  # hashed by the write
                "execution": snapshot.execution,
                "spec_hash": snapshot.spec_hash(),
            }
        )
        return path

    def sink_for(self, run_key: str) -> Callable[[SimulationSnapshot], None]:
        """A ``checkpoint_sink`` callable the engine can be handed directly."""

        def sink(snapshot: SimulationSnapshot) -> None:
            self.save(snapshot, run_key)

        return sink

    # -- loading -------------------------------------------------------------------
    def load(self, run_key: str) -> SimulationSnapshot | None:
        """The latest snapshot of ``run_key``, or ``None`` when absent."""

        path = self.path_for(run_key)
        if not path.exists():
            return None
        return SimulationSnapshot.load(path)

    def load_for_spec(self, spec: Any) -> SimulationSnapshot | None:
        """The resumable snapshot of ``spec``, verified to belong to it.

        ``spec`` is an :class:`~repro.orchestration.spec.ExperimentSpec`
        (duck-typed to keep this module orchestration-agnostic).  A snapshot
        found under the spec's key but embedding a different spec is a hard
        error — it means the file was renamed or tampered with.
        """

        run_key = spec.content_hash()
        snapshot = self.load(run_key)
        if snapshot is None:
            return None
        if snapshot.spec_hash() != run_key:
            raise CheckpointError(
                f"snapshot {str(self.path_for(run_key))!r} embeds spec hash "
                f"{str(snapshot.spec_hash())[:12]}..., expected {run_key[:12]}...; "
                "the file does not belong to this experiment spec"
            )
        return snapshot

    # -- lineage -------------------------------------------------------------------
    def record_lineage(self, entry: dict[str, Any]) -> None:
        """Append one provenance row to ``lineage.jsonl``."""

        self.directory.mkdir(parents=True, exist_ok=True)
        with self.lineage_path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
