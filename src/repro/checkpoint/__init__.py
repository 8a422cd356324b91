"""Checkpoint/restore subsystem: pause anywhere, resume anywhere, bytes unchanged.

The package extends the repo's determinism contract with a fourth pillar —
*interrupt at round k + resume is byte-identical to the uninterrupted run* —
and unlocks scenario forking: replaying one trained state under many what-if
futures without re-paying the common prefix.

* :mod:`repro.checkpoint.snapshot` — the versioned
  :class:`SimulationSnapshot` (full mid-run state; one binary file of a JSON
  header and raw array blobs, hashed once while written, length-checked and
  verified on load) plus the engine bridge :func:`capture_snapshot` /
  :func:`restore_simulator`;
* :mod:`repro.checkpoint.serialization` — exact codecs for arrays, RNG
  streams, messages, events and round contexts, and the stored form of an
  encoded tree (a JSON header plus raw blobs);
* :mod:`repro.checkpoint.manager` — directory-backed snapshot storage keyed
  by spec content hash, with a ``lineage.jsonl`` provenance sidecar;
* :mod:`repro.checkpoint.preemption` — cooperative ``SIGINT``-to-checkpoint
  wiring for preemptible sweep workers.

Typical use through the orchestration layer::

    from repro.orchestration import run_sweep
    outcome = run_sweep(sweep, store, checkpoint_dir="ckpts", checkpoint_every=1)
    # SIGINT the process: in-flight cells checkpoint and the sweep stops.
    # Re-running the same command resumes every paused cell mid-spec.

or directly against the engine::

    simulator = Simulator(task, factory, config, checkpoint_every=5,
                          checkpoint_sink=manager.sink_for(key))
    try:
        result = simulator.run()
    except ExperimentPaused as paused:
        ...  # paused.snapshot is the freshly captured SimulationSnapshot
"""

from repro.checkpoint import preemption
from repro.checkpoint.manager import CheckpointManager
from repro.checkpoint.serialization import (
    decode_rng_state,
    decode_value,
    encode_rng_state,
    encode_value,
    new_rng_from_state,
)
from repro.checkpoint.snapshot import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    SimulationSnapshot,
    capture_snapshot,
    restore_simulator,
)
from repro.exceptions import CheckpointError, ExperimentPaused

__all__ = [
    "CheckpointError",
    "CheckpointManager",
    "ExperimentPaused",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "SimulationSnapshot",
    "capture_snapshot",
    "decode_rng_state",
    "decode_value",
    "encode_rng_state",
    "encode_value",
    "new_rng_from_state",
    "preemption",
    "restore_simulator",
]
