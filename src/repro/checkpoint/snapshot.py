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

* a snapshot file (version 5) is a magic string, the version and header
  length, a canonical-JSON header (the snapshot with each array as
  ``{"__blob__": i, "dtype", "shape"}``), the arrays as 8-byte-aligned raw
  little-endian blobs, and a trailer with the total length and the SHA-256 of
  the header followed by the blobs (alignment padding included);
* :meth:`SimulationSnapshot.content_hash` is that SHA-256, computed once
  while writing; :meth:`SimulationSnapshot.load` refuses a torn file by its
  length before any hashing and verifies the hash while reading, so silent
  corruption or manual edits fail loudly;
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
import struct
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Mapping

import numpy as np

from repro.checkpoint.serialization import decode_value, encode_value, join_blobs, split_blobs
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
#: Version 5: a binary file (header plus raw array blobs, see the module
#: docstring) instead of one JSON document, hashed over that layout; the
#: reserved ``profiler`` field is gone.  Versions 1-4 are JSON documents,
#: refused by their number.
#: A kernel rewrite that only moves float bits (the channel-major conv stack)
#: does not bump it: a snapshot holds parameters, RNG and scheme state at a
#: round boundary, never a kernel's cache or layout.
SNAPSHOT_FORMAT = "jwins-repro-checkpoint"
SNAPSHOT_VERSION = 5

#: Magic (the format name, NUL-padded), version, header length in bytes.
_PREFIX = struct.Struct("<24sQQ")
#: Total file length in bytes, SHA-256 of everything between prefix and trailer.
_TRAILER = struct.Struct("<Q32s")
_MAGIC = SNAPSHOT_FORMAT.encode("ascii").ljust(24, b"\0")
_ALIGN = 8


def _aligned(length: int) -> int:
    return length + -length % _ALIGN


def _chunks(header: bytes, blobs: list[np.ndarray]) -> Iterator[Any]:
    """Everything between prefix and trailer, in order: what the hash covers."""

    yield header
    yield bytes(_aligned(len(header)) - len(header))
    for blob in blobs:
        yield blob.data
        yield bytes(_aligned(blob.nbytes) - blob.nbytes)


def _canonical_json(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True, eq=False)
class SimulationSnapshot:
    """Full mid-run state of one simulation, in encoded form.

    Every field is already encoded (see
    :mod:`repro.checkpoint.serialization`): JSON values, with numpy arrays as
    leaves.  A snapshot is a value — frozen, and its content hash is computed
    at most once.  The file :meth:`save` writes is its only stored form:
    compare snapshots by those bytes.
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
    #: ``ExperimentSpec.to_dict()`` when the run was orchestration-driven.
    spec: dict[str, Any] | None = None
    #: Frozen models held by stale-replay Byzantine attackers:
    #: ``[[node_id, encoded_params], ...]`` sorted by node id (empty when no
    #: stale-replay window was open at capture time).
    byzantine: list[list[Any]] = field(default_factory=list)
    #: Snapshot schema version.
    version: int = SNAPSHOT_VERSION

    # -- identity ------------------------------------------------------------------
    # Hand-written, not the record codec's: a bad file is a CheckpointError.
    @classmethod
    def _from_fields(cls, data: Mapping[str, Any]) -> "SimulationSnapshot":
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

    def _layout(self) -> tuple[bytes, list[np.ndarray]]:
        """The canonical-JSON header and the arrays it refers to, in blob order."""

        tree, blobs = split_blobs(
            {snapshot_field.name: getattr(self, snapshot_field.name) for snapshot_field in fields(self)}
        )
        return _canonical_json(tree).encode("utf-8"), blobs

    def _remember_hash(self, digest: str) -> None:
        object.__setattr__(self, "_content_hash", digest)

    def content_hash(self) -> str:
        """SHA-256 hex digest of the header and blobs a saved file holds.

        Computed at most once: :meth:`save` and :meth:`load` keep the digest
        of the bytes they wrote or verified.
        """

        if "_content_hash" not in self.__dict__:
            digest = hashlib.sha256()
            for chunk in _chunks(*self._layout()):
                digest.update(chunk)
            self._remember_hash(digest.hexdigest())
        return self.__dict__["_content_hash"]

    def spec_hash(self) -> str | None:
        """Content hash of the embedded spec, or ``None`` for spec-less runs."""

        if self.spec is None:
            return None
        from repro.orchestration.spec import ExperimentSpec  # local: avoid a cycle

        return ExperimentSpec.from_dict(self.spec).content_hash()

    # -- persistence ---------------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        """Write the snapshot to ``path`` atomically; returns ``path``.

        The content hash is computed once, over the bytes as they are written.
        """

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        header, blobs = self._layout()
        digest = hashlib.sha256()
        temporary = path.with_name(path.name + ".tmp")
        with temporary.open("wb") as handle:
            handle.write(_PREFIX.pack(_MAGIC, self.version, len(header)))
            for chunk in _chunks(header, blobs):
                digest.update(chunk)
                handle.write(chunk)
            handle.write(_TRAILER.pack(handle.tell() + _TRAILER.size, digest.digest()))
        os.replace(temporary, path)
        self._remember_hash(digest.hexdigest())
        return path

    @classmethod
    def load(cls, path: str | Path) -> "SimulationSnapshot":
        """Read a snapshot from ``path``, verifying format, version, length and hash.

        The arrays of the returned snapshot are read-only views of the file's
        bytes; restoring copies them.
        """

        path = Path(path)
        try:
            with path.open("rb") as handle:
                prefix = handle.read(_PREFIX.size)
                if prefix[: len(_MAGIC)] != _MAGIC[: len(prefix)]:
                    _refuse_foreign(path, prefix + handle.read())
                if len(prefix) < _PREFIX.size:
                    raise _torn(path, len(prefix), None)
                _, version, header_length = _PREFIX.unpack(prefix)
                if version != SNAPSHOT_VERSION:
                    raise _version_error(path, version)
                size = os.fstat(handle.fileno()).st_size
                if size < _PREFIX.size + _TRAILER.size:
                    raise _torn(path, size, None)
                handle.seek(size - _TRAILER.size)
                total, stored = _TRAILER.unpack(handle.read(_TRAILER.size))
                if total != size:
                    raise _torn(path, size, total)
                handle.seek(_PREFIX.size)
                body = handle.read(size - _PREFIX.size - _TRAILER.size)
        except OSError as error:
            raise CheckpointError(f"cannot read snapshot {str(path)!r}: {error}") from error
        actual = hashlib.sha256(body).digest()
        if actual != stored:
            raise CheckpointError(
                f"snapshot {str(path)!r} failed its integrity check "
                f"(stored hash {stored.hex()[:12]}..., actual {actual.hex()[:12]}...); "
                "the file is corrupt or was edited"
            )
        try:
            header = json.loads(body[:header_length])
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise CheckpointError(f"snapshot {str(path)!r} has a malformed header: {error}") from error
        offset = _aligned(header_length)

        def blob(dtype: np.dtype, shape: tuple[int, ...]) -> np.ndarray:
            nonlocal offset
            count = int(np.prod(shape, dtype=np.int64))
            try:
                array = np.frombuffer(body, dtype=dtype, count=count, offset=offset)
            except ValueError as error:
                raise CheckpointError(
                    f"snapshot {str(path)!r} has a malformed blob: {error}"
                ) from error
            offset += _aligned(array.nbytes)
            return array.reshape(shape)

        snapshot = cls._from_fields(join_blobs(header, blob))
        snapshot._remember_hash(actual.hex())
        return snapshot


def _torn(path: Path, size: int, total: int | None) -> CheckpointError:
    recorded = "no trailer" if total is None else f"a trailer that records {total}"
    return CheckpointError(
        f"snapshot {str(path)!r} is torn: it holds {size} bytes and {recorded}; "
        "the write did not finish or the file was cut"
    )


def _version_error(path: Path, version: Any) -> CheckpointError:
    return CheckpointError(
        f"snapshot {str(path)!r} uses schema version {version!r}; "
        f"this build reads version {SNAPSHOT_VERSION}"
    )


def _refuse_foreign(path: Path, data: bytes) -> None:
    """Refuse a file without the magic: a JSON-era snapshot by its version."""

    try:
        document = json.loads(data)
    except (UnicodeDecodeError, json.JSONDecodeError):
        document = None
    if isinstance(document, dict) and document.get("format") == SNAPSHOT_FORMAT:
        raise _version_error(path, document.get("version"))
    raise CheckpointError(f"{str(path)!r} is not a jwins-repro checkpoint file")


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
