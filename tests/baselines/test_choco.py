"""Tests for the CHOCO-SGD baseline."""

import numpy as np
import pytest

from repro.baselines.choco import ChocoScheme, choco_factory
from repro.core.interface import Message, RoundContext
from repro.exceptions import SimulationError

SIZE = 50


def _context(trained, neighbors=(1,), round_index=0):
    weight = 1.0 / (len(neighbors) + 1)
    return RoundContext(
        round_index=round_index,
        params_start=np.zeros(SIZE),
        params_trained=trained,
        self_weight=weight,
        neighbor_weights={n: weight for n in neighbors},
        rng=np.random.default_rng(round_index),
    )


def test_message_is_topk_of_difference_to_public_copy():
    scheme = ChocoScheme(0, SIZE, seed=1, fraction=0.2, gamma=0.5)
    trained = np.zeros(SIZE)
    trained[:5] = np.array([5.0, -4.0, 3.0, -2.0, 1.0])
    message = scheme.prepare(_context(trained))
    # x_hat starts at zero, so the difference is the trained model itself and
    # the TopK picks its largest entries.
    assert message.payload["indices"].size == 10
    assert set(range(5)).issubset(set(message.payload["indices"].tolist()))


def test_public_copy_converges_to_private_model():
    """Repeatedly compressing the difference drives x_hat towards the model."""

    scheme = ChocoScheme(0, SIZE, seed=1, fraction=0.3, gamma=0.8)
    trained = np.random.default_rng(0).normal(size=SIZE)
    context = RoundContext(0, np.zeros(SIZE), trained, 1.0, {}, np.random.default_rng(0))
    for _ in range(20):
        scheme.prepare(context)
        scheme.aggregate(context, [])
    assert np.allclose(scheme._x_hat, trained, atol=1e-6)


def test_gossip_correction_moves_towards_neighbor():
    scheme_a = ChocoScheme(0, SIZE, seed=1, fraction=1.0, gamma=1.0)
    scheme_b = ChocoScheme(1, SIZE, seed=2, fraction=1.0, gamma=1.0)
    model_a = np.zeros(SIZE)
    model_b = np.ones(SIZE)
    context_a = _context(model_a, neighbors=(1,))
    context_b = _context(model_b, neighbors=(0,))
    message_a = scheme_a.prepare(context_a)
    message_b = scheme_b.prepare(context_b)
    new_a = scheme_a.aggregate(context_a, [message_b])
    new_b = scheme_b.aggregate(context_b, [message_a])
    # With full compression and gamma=1 this is exact D-PSGD averaging.
    assert np.allclose(new_a, 0.5)
    assert np.allclose(new_b, 0.5)


def test_two_nodes_converge_to_consensus_over_rounds():
    scheme_a = ChocoScheme(0, SIZE, seed=1, fraction=0.3, gamma=0.6)
    scheme_b = ChocoScheme(1, SIZE, seed=2, fraction=0.3, gamma=0.6)
    model_a = np.zeros(SIZE)
    model_b = np.ones(SIZE)
    for round_index in range(60):
        context_a = _context(model_a, neighbors=(1,), round_index=round_index)
        context_b = _context(model_b, neighbors=(0,), round_index=round_index)
        message_a = scheme_a.prepare(context_a)
        message_b = scheme_b.prepare(context_b)
        model_a = scheme_a.aggregate(context_a, [message_b])
        model_b = scheme_b.aggregate(context_b, [message_a])
    assert np.allclose(model_a, model_b, atol=0.05)
    assert np.allclose(model_a, 0.5, atol=0.1)


def test_messages_meter_values_and_metadata():
    scheme = ChocoScheme(0, SIZE, seed=1, fraction=0.2, gamma=0.5)
    message = scheme.prepare(_context(np.random.default_rng(3).normal(size=SIZE)))
    assert message.size.values_bytes > 0
    assert message.size.metadata_bytes > 0


def test_aggregate_before_prepare_raises():
    scheme = ChocoScheme(0, SIZE, seed=1, fraction=0.37, gamma=0.6)
    with pytest.raises(SimulationError):
        scheme.aggregate(_context(np.zeros(SIZE)), [])


def test_incompatible_message_rejected():
    scheme = ChocoScheme(0, SIZE, seed=1, fraction=0.37, gamma=0.6)
    context = _context(np.zeros(SIZE))
    scheme.prepare(context)
    with pytest.raises(SimulationError):
        scheme.aggregate(context, [Message(sender=1, kind="full-model", payload={})])


def test_invalid_hyperparameters_raise():
    with pytest.raises(SimulationError):
        ChocoScheme(0, SIZE, seed=1, fraction=0.0, gamma=0.6)
    with pytest.raises(SimulationError):
        ChocoScheme(0, SIZE, seed=1, fraction=0.37, gamma=0.0)


def test_factory_sets_budget_and_gamma():
    scheme = choco_factory(fraction=0.1, gamma=0.3)(4, SIZE, 2)
    assert scheme.fraction == 0.1
    assert scheme.gamma == 0.3
    assert scheme.node_id == 4
