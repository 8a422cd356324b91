"""Tests for partial (sparse) weighted averaging."""

import numpy as np
import pytest

from repro.baselines import FullSharingScheme, QuantizedSharingScheme
from repro.core.aggregation import (
    SparseContribution,
    average_inbox,
    partial_weighted_average,
    weighted_inbox,
)
from repro.core.interface import Message, RoundContext
from repro.exceptions import SimulationError


def test_no_contributions_returns_own_vector():
    own = np.arange(5.0)
    result = partial_weighted_average(own, 1.0, [])
    assert np.array_equal(result, own)
    assert result is not own


def test_full_contributions_match_dense_average():
    own = np.array([1.0, 2.0, 3.0])
    other = np.array([3.0, 4.0, 5.0])
    contribution = SparseContribution(0.5, np.arange(3), other)
    result = partial_weighted_average(own, 0.5, [contribution])
    assert np.allclose(result, 0.5 * own + 0.5 * other)


def test_missing_entries_filled_with_own_values():
    own = np.array([1.0, 1.0, 1.0, 1.0])
    contribution = SparseContribution(0.5, np.array([1]), np.array([3.0]))
    result = partial_weighted_average(own, 0.5, [contribution])
    assert np.allclose(result, [1.0, 2.0, 1.0, 1.0])


def test_multiple_sparse_contributions():
    own = np.zeros(4)
    contributions = [
        SparseContribution(0.25, np.array([0, 1]), np.array([4.0, 4.0])),
        SparseContribution(0.25, np.array([1, 2]), np.array([8.0, 8.0])),
    ]
    result = partial_weighted_average(own, 0.5, contributions)
    assert np.allclose(result, [1.0, 3.0, 2.0, 0.0])


def test_weights_above_one_rejected():
    own = np.zeros(3)
    contribution = SparseContribution(0.7, np.array([0]), np.array([1.0]))
    with pytest.raises(SimulationError):
        partial_weighted_average(own, 0.5, [contribution])


def test_missing_mass_keeps_own_values():
    """A dropped neighbor (weights summing below one) leaves own values in place."""

    own = np.full(3, 2.0)
    contribution = SparseContribution(0.25, np.array([0]), np.array([6.0]))
    result = partial_weighted_average(own, 0.5, [contribution])
    assert np.allclose(result, [3.0, 2.0, 2.0])


def test_indices_out_of_range_raise():
    own = np.zeros(3)
    contribution = SparseContribution(0.5, np.array([7]), np.array([1.0]))
    with pytest.raises(SimulationError):
        partial_weighted_average(own, 0.5, [contribution])


def test_mismatched_indices_values_raise():
    with pytest.raises(SimulationError):
        SparseContribution(0.5, np.array([1, 2]), np.array([1.0]))


def test_average_bounded_by_contributing_values():
    """Every coordinate of the result lies within the convex hull of inputs."""

    rng = np.random.default_rng(0)
    own = rng.normal(size=20)
    others = [rng.normal(size=20) for _ in range(3)]
    contributions = [
        SparseContribution(0.25, np.arange(20), other) for other in others
    ]
    result = partial_weighted_average(own, 0.25, contributions)
    stacked = np.stack([own] + others)
    assert np.all(result <= stacked.max(axis=0) + 1e-12)
    assert np.all(result >= stacked.min(axis=0) - 1e-12)


# -- the dense case and the shared inbox reader ---------------------------------------


def _dense_average_oracle(context, messages):
    """The own-centred loop full and quantized sharing each carried before they
    were routed through :func:`partial_weighted_average` (kept as the oracle)."""

    own = np.asarray(context.params_trained, dtype=np.float64)
    result = own.copy()
    total_weight = context.self_weight
    for message in messages:
        weight = context.neighbor_weights[message.sender]
        result += weight * (np.asarray(message.payload["values"], dtype=np.float64) - own)
        total_weight += weight
    assert total_weight <= 1.0 + 1e-6
    return result


def _dense_round(size=257, neighbors=(1, 2, 5), seed=0):
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(len(neighbors) + 1))
    own = rng.normal(size=size)
    own[::7] = -0.0
    context = RoundContext(
        round_index=0,
        params_start=np.zeros(size),
        params_trained=own,
        self_weight=float(weights[0]),
        neighbor_weights={n: float(w) for n, w in zip(neighbors, weights[1:])},
        rng=np.random.default_rng(0),
    )
    models = {n: rng.normal(size=size) * 10.0 ** rng.integers(-8, 8) for n in neighbors}
    return context, models


@pytest.mark.parametrize(
    "scheme_type,kind",
    [(FullSharingScheme, "full-model"), (QuantizedSharingScheme, "quantized-full-model")],
)
@pytest.mark.parametrize("delivered", [(), (2,), (1, 2, 5)])
def test_dense_schemes_mix_to_the_same_bytes_as_their_old_loop(scheme_type, kind, delivered):
    for seed in range(5):
        context, models = _dense_round(seed=seed)
        inbox = [Message(n, kind, {"values": models[n]}) for n in delivered]
        actual = scheme_type(0, 257, seed=1).aggregate(context, inbox)
        assert actual.tobytes() == _dense_average_oracle(context, inbox).tobytes()
        assert actual is not context.params_trained


def test_dense_contribution_is_every_position():
    own, other = np.array([1.0, -0.0, 3.0]), np.array([3.0, 4.0, 5.0])
    dense = partial_weighted_average(own, 0.5, [SparseContribution(0.5, None, other)])
    sparse = partial_weighted_average(own, 0.5, [SparseContribution(0.5, np.arange(3), other)])
    assert dense.tobytes() == sparse.tobytes()
    with pytest.raises(SimulationError, match="dense contribution"):
        partial_weighted_average(own, 0.5, [SparseContribution(0.5, None, other[:2])])


def test_inbox_reader_checks_kind_and_neighborhood_lazily():
    context, models = _dense_round()
    good = Message(1, "k", {"values": models[1]})
    assert [(w, p) for w, p in weighted_inbox(context, [good], "k", "x")] == [
        (context.neighbor_weights[1], good.payload)
    ]
    alien = Message(1, "other", {"values": models[1]})
    stranger = Message(9, "k", {"values": models[1]})
    reader = weighted_inbox(context, [good, alien], "k", "my scheme")
    next(reader)  # the first message passes before the second is looked at
    with pytest.raises(SimulationError, match="my scheme received an incompatible message"):
        next(reader)
    with pytest.raises(SimulationError, match="non-neighbor node 9"):
        average_inbox(context.params_trained, context, [stranger], "k", "x")
    # Over-unity weights are the mixer's check, whatever the payload shape.
    context.self_weight = 0.9
    with pytest.raises(SimulationError, match="must not exceed 1"):
        average_inbox(context.params_trained, context, [good] * 3, "k", "x")
