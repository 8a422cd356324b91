"""Shared fixtures: small tasks and configurations that keep tests fast."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import struct
import tempfile
from pathlib import Path
from typing import Any, Callable

import numpy as np
import pytest

from repro.checkpoint.serialization import join_blobs, split_blobs
from repro.checkpoint.snapshot import SimulationSnapshot
from repro.datasets.base import Dataset, LearningTask, classification_accuracy
from repro.datasets.synthetic import make_class_images
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import MLPClassifier
from repro.simulation.engine import Simulator
from repro.simulation.experiment import ExperimentConfig


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def make_toy_task(
    seed: int = 7,
    train_samples: int = 160,
    test_samples: int = 64,
    num_classes: int = 4,
    image_size: int = 4,
    hidden: int = 16,
) -> LearningTask:
    """A tiny, quickly learnable classification task used across the test suite.

    The model is a small MLP over 1x4x4 synthetic class-prototype images, so a
    full decentralized experiment over a handful of rounds runs in well under a
    second.
    """

    generator = np.random.default_rng(seed)
    inputs, labels = make_class_images(
        generator, train_samples + test_samples, num_classes, image_size=image_size, channels=1,
        noise=0.5,
    )
    train = Dataset(inputs[:train_samples], labels[:train_samples])
    test = Dataset(inputs[train_samples:], labels[train_samples:])
    input_size = image_size * image_size
    return LearningTask(
        name="toy",
        train=train,
        test=test,
        model_factory=lambda model_rng: MLPClassifier(input_size, hidden, num_classes, model_rng),
        loss_factory=CrossEntropyLoss,
        accuracy_fn=classification_accuracy,
    )


@pytest.fixture
def toy_task() -> LearningTask:
    return make_toy_task()


@pytest.fixture
def small_config() -> ExperimentConfig:
    """A 6-node configuration that completes in a fraction of a second."""

    return ExperimentConfig(
        num_nodes=6,
        degree=2,
        rounds=4,
        local_steps=1,
        batch_size=8,
        learning_rate=0.1,
        eval_every=2,
        eval_test_samples=48,
        seed=3,
        partition="shards",
    )


def stored_form(tree: Any) -> tuple[str, list[bytes]]:
    """An encoded tree as a snapshot file stores it: the canonical header JSON
    (arrays as blob references) and the bytes of each blob, in blob order.

    A :class:`SimulationSnapshot` stands for the tree of its fields.
    """

    if isinstance(tree, SimulationSnapshot):
        tree = {name.name: getattr(tree, name.name) for name in dataclasses.fields(tree)}
    header, blobs = split_blobs(tree)
    return (
        json.dumps(header, sort_keys=True, separators=(",", ":")),
        [blob.tobytes() for blob in blobs],
    )


def from_stored_form(form: tuple[str, list[bytes]]) -> Any:
    """Inverse of :func:`stored_form`: the header through JSON text, the arrays
    read back from their bytes (read-only, as a loaded file's are)."""

    header, blobs = form
    data = iter(blobs)
    return join_blobs(
        json.loads(header),
        lambda dtype, shape: np.frombuffer(next(data), dtype=dtype).reshape(shape),
    )


def rewrite_header(path: Path, edit: Callable[[dict], Any]) -> None:
    """Edit the header of the snapshot file at ``path`` in place and re-sign
    the file: length, hash and alignment stay valid, so only the loader's
    field checks can refuse it."""

    data = path.read_bytes()
    magic, version, length = struct.unpack_from("<24sQQ", data)
    header = json.loads(data[40 : 40 + length])
    edit(header)
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    body = text + bytes(-len(text) % 8) + data[40 + length + -length % 8 : -40]
    trailer = struct.pack("<Q32s", 40 + len(body) + 40, hashlib.sha256(body).digest())
    path.write_bytes(struct.pack("<24sQQ", magic, version, len(text)) + body + trailer)


def through_file(snapshot: SimulationSnapshot) -> SimulationSnapshot:
    """``snapshot`` saved to a file and loaded back: what a resume reads."""

    with tempfile.TemporaryDirectory() as directory:
        return SimulationSnapshot.load(snapshot.save(Path(directory) / "run.ckpt"))


@pytest.fixture
def pause_after_round(monkeypatch):
    """``pause_after_round(k)``: every run pauses once it has completed ``k``
    rounds, as if interrupted there; ``pause_after_round(None)`` lifts it."""

    threshold: list[int | None] = [None]
    pending = Simulator.checkpoint_stop_pending

    def stop_pending(simulator: Simulator) -> bool:
        return pending(simulator) or (
            threshold[0] is not None and simulator.result.rounds_completed >= threshold[0]
        )

    monkeypatch.setattr(Simulator, "checkpoint_stop_pending", stop_pending)

    def pause(rounds: int | None) -> None:
        threshold[0] = rounds

    return pause
