"""Versioned, exactly-serializable snapshots of a mid-run simulation.

A :class:`SimulationSnapshot` captures everything a
:class:`~repro.simulation.engine.Simulator` needs to continue a run as if it
had never stopped: per-node models, accumulation residuals and scheme
state, every live RNG stream, the communication topology, the byte meter,
the partial :class:`~repro.simulation.metrics.ExperimentResult` and — under the
asynchronous mode — the full event queue with its in-flight messages and
per-node round contexts.

The snapshot extends the repo's determinism contract to a fourth pillar:
*interrupt at round k + resume is byte-identical to the uninterrupted run*,
in both execution modes.  The other pillars (seed pinning, serial-vs-pool
identity, vectorized-vs-reference codecs) are documented in
``docs/ARCHITECTURE.md``.

Integrity and identity:

* :meth:`SimulationSnapshot.content_hash` — SHA-256 over the canonical JSON
  of the snapshot; stored next to the payload on disk, verified on every
  load, so silent corruption or manual edits fail loudly;
* the snapshot embeds the :class:`~repro.orchestration.spec.ExperimentSpec`
  that produced it (when the run was spec-driven), tying each snapshot to its
  cell — resuming under a different spec is refused, unless that spec is a
  ``fork`` whose lineage names this snapshot's spec and round (a replay
  under a mutated config axis).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from repro.checkpoint.serialization import decode_value, encode_value
from repro.exceptions import CheckpointError
from repro.simulation.metrics import ExperimentResult
from repro.topology.graphs import Topology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.simulation.engine import Simulator

__all__ = [
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "SimulationSnapshot",
    "capture_snapshot",
    "restore_simulator",
]

#: Identifies a checkpoint file; bump :data:`SNAPSHOT_VERSION` on breaking
#: schema changes so stale snapshots fail loudly instead of resuming wrongly.
#: Version 2: new float codec; a snapshot holds byte counts, not the codec's name.
#: Version 3: JWINS scheme state holds ``F_start``, the coefficients of the
#: node's start model, which the next round's local change is taken against.
#: Version 4: plain SGD keeps no state, so a node holds no ``"optimizer"``
#: entry, and the config record has no ``momentum``, ``stop_at_target`` or
#: ``time_model``.
#: A kernel rewrite that only moves float bits (the channel-major conv stack)
#: does not bump it: a snapshot holds parameters, RNG and scheme state at a
#: round boundary, never a kernel's cache or layout.
SNAPSHOT_FORMAT = "jwins-repro-checkpoint"
SNAPSHOT_VERSION = 4


def _canonical_json(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@dataclass
class SimulationSnapshot:
    """Full mid-run state of one simulation, in JSON-safe encoded form.

    Every field is already encoded (see
    :mod:`repro.checkpoint.serialization`), so :meth:`to_dict` and
    :meth:`from_dict` are trivial exact inverses and hashing is stable.
    """

    #: Execution mode the snapshot was taken under (``"sync"``/``"async"``).
    execution: str
    #: ``ExperimentConfig.to_dict()`` of the run.
    config: dict[str, Any]
    #: Task (dataset) name, for mismatch diagnostics.
    task: str
    #: Display name of the scheme under test.
    scheme: str
    #: Flat parameter count of one node's model.
    model_size: int
    #: Globally completed rounds at capture time (also the resume point).
    rounds_completed: int
    #: Partial ``ExperimentResult.to_dict()`` at the capture boundary.
    result: dict[str, Any]
    #: Per-node encoded ``SimulationNode.state_dict()`` payloads.
    nodes: list[dict[str, Any]]
    #: Engine RNG streams: name -> bit-generator state.
    rng_streams: dict[str, Any]
    #: Communication graph: ``{"num_nodes": n, "edges": [[u, v], ...]}``.
    topology: dict[str, Any]
    #: Encoded ``ByteMeter.state_dict()``.
    meter: dict[str, Any]
    #: Execution-mode private state (``{"kind": "sync"|"async", ...}``).
    mode_state: dict[str, Any]
    #: Reserved: held a removed phase profiler's state.  Captured as ``None``
    #: and never read, but kept verbatim so a file that carries state still
    #: loads and re-serializes identically; it goes with the next change of
    #: the file layout.
    profiler: dict[str, Any] | None = None
    #: ``ExperimentSpec.to_dict()`` when the run was orchestration-driven.
    spec: dict[str, Any] | None = None
    #: Frozen models held by stale-replay Byzantine attackers:
    #: ``[[node_id, encoded_params], ...]`` sorted by node id (empty when no
    #: stale-replay window was open at capture time; absent in old snapshots).
    byzantine: list[list[Any]] = field(default_factory=list)
    #: Snapshot schema version.
    version: int = SNAPSHOT_VERSION

    # -- identity ------------------------------------------------------------------
    # Hand-written, not the record codec's: a bad file is a CheckpointError.
    def to_dict(self) -> dict[str, Any]:
        """JSON-safe representation; exact inverse of :meth:`from_dict`."""

        return {snapshot_field.name: getattr(self, snapshot_field.name) for snapshot_field in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimulationSnapshot":
        """Rebuild a snapshot from :meth:`to_dict` output."""

        known = {snapshot_field.name for snapshot_field in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise CheckpointError(
                f"unknown snapshot field(s): {', '.join(unknown)} "
                "(snapshot written by a newer version?)"
            )
        missing = sorted(
            snapshot_field.name
            for snapshot_field in fields(cls)
            if snapshot_field.name not in data
            and snapshot_field.default is MISSING
            and snapshot_field.default_factory is MISSING
        )
        if missing:
            raise CheckpointError(f"snapshot is missing field(s): {', '.join(missing)}")
        return cls(**dict(data))

    def content_hash(self) -> str:
        """SHA-256 hex digest of the canonical snapshot JSON."""

        return hashlib.sha256(_canonical_json(self.to_dict()).encode("utf-8")).hexdigest()

    def spec_hash(self) -> str | None:
        """Content hash of the embedded spec, or ``None`` for spec-less runs."""

        if self.spec is None:
            return None
        from repro.orchestration.spec import ExperimentSpec  # local: avoid a cycle

        return ExperimentSpec.from_dict(self.spec).content_hash()

    # -- persistence ---------------------------------------------------------------
    def save(self, path: str | Path, content_hash: str | None = None) -> Path:
        """Write the snapshot (and its content hash) to ``path`` atomically.

        ``content_hash`` lets a caller that already computed
        :meth:`content_hash` (hashing serializes the whole snapshot) avoid a
        second full serialization.
        """

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "format": SNAPSHOT_FORMAT,
            "version": self.version,
            "hash": content_hash if content_hash is not None else self.content_hash(),
            "snapshot": self.to_dict(),
        }
        temporary = path.with_name(path.name + ".tmp")
        with temporary.open("w", encoding="utf-8") as handle:
            json.dump(document, handle, sort_keys=True)
            handle.write("\n")
        os.replace(temporary, path)
        return path

    @classmethod
    def load(cls, path: str | Path) -> "SimulationSnapshot":
        """Read a snapshot from ``path``, verifying format, version and hash."""

        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as error:
            raise CheckpointError(f"cannot read snapshot {str(path)!r}: {error}") from error
        try:
            document = json.loads(text)
        except json.JSONDecodeError as error:
            raise CheckpointError(
                f"snapshot {str(path)!r} is not valid JSON: {error}"
            ) from error
        if not isinstance(document, dict) or document.get("format") != SNAPSHOT_FORMAT:
            raise CheckpointError(f"{str(path)!r} is not a jwins-repro checkpoint file")
        version = document.get("version")
        if version != SNAPSHOT_VERSION:
            raise CheckpointError(
                f"snapshot {str(path)!r} uses schema version {version!r}; "
                f"this build reads version {SNAPSHOT_VERSION}"
            )
        snapshot = cls.from_dict(document.get("snapshot", {}))
        stored_hash = document.get("hash")
        actual_hash = snapshot.content_hash()
        if stored_hash != actual_hash:
            raise CheckpointError(
                f"snapshot {str(path)!r} failed its integrity check "
                f"(stored hash {str(stored_hash)[:12]}..., actual {actual_hash[:12]}...); "
                "the file is corrupt or was edited"
            )
        return snapshot

# -- engine bridge -------------------------------------------------------------------
#: The RNG streams a `Simulator` owns directly (name -> attribute).
_ENGINE_RNG_ATTRS = {
    "evaluation": "_eval_rng",
    "message-drops": "_drop_rng",
    "topology": "_topology_rng",
}


def capture_snapshot(
    simulator: "Simulator", mode_state: dict[str, Any]
) -> SimulationSnapshot:
    """Capture ``simulator``'s full state at a round boundary.

    ``mode_state`` is the execution mode's private state (already encoded via
    :func:`~repro.checkpoint.serialization.encode_value`); its ``"kind"``
    entry must name the mode so a snapshot can never resume under the wrong
    schedule.
    """

    if mode_state.get("kind") != simulator.mode.name:
        raise CheckpointError(
            f"mode state kind {mode_state.get('kind')!r} does not match the "
            f"running execution mode {simulator.mode.name!r}"
        )
    return SimulationSnapshot(
        execution=simulator.mode.name,
        config=simulator.config.to_dict(),
        task=simulator.task.name,
        scheme=simulator.result.scheme,
        model_size=int(simulator.model_size),
        rounds_completed=int(simulator.result.rounds_completed),
        result=simulator.result.to_dict(),
        nodes=[encode_value(node.state_dict()) for node in simulator.nodes],
        rng_streams={
            name: encode_value(getattr(simulator, attr).bit_generator.state)
            for name, attr in _ENGINE_RNG_ATTRS.items()
        },
        topology={
            "num_nodes": int(simulator.topology.num_nodes),
            "edges": [[int(u), int(v)] for u, v in simulator.topology.edges],
        },
        meter=encode_value(simulator.meter.state_dict()),
        mode_state=mode_state,
        spec=simulator.spec_payload,
        byzantine=[
            [int(node_id), encode_value(simulator._byzantine_stale[node_id])]
            for node_id in sorted(simulator._byzantine_stale)
        ],
    )


def restore_simulator(simulator: "Simulator", snapshot: SimulationSnapshot) -> None:
    """Overlay ``snapshot`` onto a freshly built ``simulator``.

    The simulator must have been constructed for the *same deployment shape*
    (node count, model size, execution mode); the experiment configuration
    may differ in schedule-level axes (scenario, rounds, drop probability),
    which is what ``fork`` exploits.  Stricter spec-identity checks live in
    the orchestration layer.
    """

    if snapshot.version != SNAPSHOT_VERSION:
        raise CheckpointError(
            f"snapshot schema version {snapshot.version} is not supported "
            f"(this build reads version {SNAPSHOT_VERSION})"
        )
    config = simulator.config
    if snapshot.execution != simulator.mode.name:
        raise CheckpointError(
            f"snapshot was taken under the {snapshot.execution!r} execution mode; "
            f"this run uses {simulator.mode.name!r}"
        )
    if snapshot.mode_state.get("kind") != simulator.mode.name:
        raise CheckpointError("snapshot mode state does not match its execution mode")
    if int(snapshot.topology["num_nodes"]) != config.num_nodes or len(
        snapshot.nodes
    ) != config.num_nodes:
        raise CheckpointError(
            f"snapshot holds {len(snapshot.nodes)} nodes "
            f"(topology over {snapshot.topology['num_nodes']}), "
            f"this run deploys {config.num_nodes}"
        )
    if int(snapshot.model_size) != int(simulator.model_size):
        raise CheckpointError(
            f"snapshot models hold {snapshot.model_size} parameters, "
            f"this run's models hold {simulator.model_size} "
            f"(task {snapshot.task!r} vs {simulator.task.name!r}?)"
        )
    if int(snapshot.rounds_completed) > config.rounds:
        raise CheckpointError(
            f"snapshot already completed {snapshot.rounds_completed} rounds, "
            f"this configuration runs only {config.rounds}"
        )

    for node, encoded in zip(simulator.nodes, snapshot.nodes):
        node.load_state_dict(decode_value(encoded))
    for name, attr in _ENGINE_RNG_ATTRS.items():
        getattr(simulator, attr).bit_generator.state = dict(
            decode_value(snapshot.rng_streams[name])
        )
    simulator.install_topology(
        Topology(
            num_nodes=int(snapshot.topology["num_nodes"]),
            edges=tuple((int(u), int(v)) for u, v in snapshot.topology["edges"]),
        )
    )
    simulator.meter.load_state_dict(decode_value(snapshot.meter))
    simulator._byzantine_stale = {
        int(node_id): decode_value(encoded) for node_id, encoded in snapshot.byzantine
    }
    restored_result = ExperimentResult.from_dict(snapshot.result)
    # The live run's identity (scheme display name, execution) wins over the
    # snapshot's so a fork relabels cleanly; the numbers are what matter.
    restored_result.execution = simulator.result.execution
    restored_result.scheme = simulator.result.scheme
    simulator.result = restored_result
    simulator.resume_state = snapshot
