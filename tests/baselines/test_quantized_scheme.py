"""Tests for the quantized full-sharing baseline."""

import numpy as np
import pytest

from repro.baselines.quantized import (
    BUCKET_SIZE,
    QuantizedSharingScheme,
    quantized_sharing_factory,
)
from repro.core.interface import Message, RoundContext
from repro.exceptions import SimulationError

SIZE = 300


def _context(trained, neighbors=(1,)):
    weight = 1.0 / (len(neighbors) + 1)
    return RoundContext(
        round_index=0,
        params_start=np.zeros(SIZE),
        params_trained=trained,
        self_weight=weight,
        neighbor_weights={n: weight for n in neighbors},
        rng=np.random.default_rng(0),
    )


def test_message_is_smaller_than_raw_model():
    scheme = QuantizedSharingScheme(0, SIZE, seed=1, bits=4)
    message = scheme.prepare(_context(np.random.default_rng(0).normal(size=SIZE)))
    assert message.size.values_bytes < 4 * SIZE
    assert message.size.metadata_bytes == 0
    # 4-bit quantization uses 5 bits per value plus one norm per bucket.
    expected = 0
    for start in range(0, SIZE, BUCKET_SIZE):
        bucket = min(BUCKET_SIZE, SIZE - start)
        expected += 4 + (bucket * 5 + 7) // 8
    assert message.size.values_bytes == expected


def test_payload_approximates_model():
    scheme = QuantizedSharingScheme(0, SIZE, seed=1, bits=8)
    trained = np.random.default_rng(1).normal(size=SIZE)
    message = scheme.prepare(_context(trained))
    relative_error = np.linalg.norm(message.payload["values"] - trained) / np.linalg.norm(trained)
    assert relative_error < 0.2


def test_aggregation_averages_dequantized_models():
    scheme = QuantizedSharingScheme(0, SIZE, seed=1, bits=8)
    own = np.zeros(SIZE)
    neighbor_values = np.full(SIZE, 2.0)
    context = _context(own)
    scheme.prepare(context)
    message = Message(
        sender=1, kind="quantized-full-model", payload={"values": neighbor_values, "bits": 8}
    )
    result = scheme.aggregate(context, [message])
    assert np.allclose(result, 1.0)


def test_incompatible_message_rejected():
    scheme = QuantizedSharingScheme(0, SIZE, seed=1)
    context = _context(np.zeros(SIZE))
    with pytest.raises(SimulationError):
        scheme.aggregate(context, [Message(sender=1, kind="full-model", payload={})])


def test_factory_sets_bits():
    scheme = quantized_sharing_factory(bits=2)(3, SIZE, 5)
    assert scheme.bits == 2
    assert scheme.node_id == 3


def test_end_to_end_learning_with_quantized_sharing():
    """The quantized baseline plugs into the simulator and still learns."""

    from repro.simulation import ExperimentConfig, run_experiment
    from tests.conftest import make_toy_task

    task = make_toy_task(seed=31, train_samples=160, test_samples=64)
    config = ExperimentConfig(
        num_nodes=4,
        degree=2,
        rounds=10,
        local_steps=2,
        batch_size=8,
        learning_rate=0.2,
        eval_every=5,
        eval_test_samples=64,
        seed=6,
        partition="shards",
    )
    result = run_experiment(task, quantized_sharing_factory(bits=6), config)
    assert result.final_accuracy > 0.4
    assert result.total_metadata_bytes == 0
