"""Tests for the full-sharing baseline."""

import numpy as np
import pytest

from repro.baselines.full_sharing import FullSharingScheme, full_sharing_factory
from repro.core.interface import Message, RoundContext
from repro.exceptions import SimulationError

SIZE = 40


def _context(trained, neighbors, self_weight=None):
    weight = 1.0 / (len(neighbors) + 1)
    return RoundContext(
        round_index=0,
        params_start=np.zeros(SIZE),
        params_trained=trained,
        self_weight=self_weight if self_weight is not None else weight,
        neighbor_weights={n: weight for n in neighbors},
        rng=np.random.default_rng(0),
    )


def test_message_contains_full_model():
    scheme = FullSharingScheme(0, SIZE, seed=1)
    trained = np.random.default_rng(1).normal(size=SIZE)
    message = scheme.prepare(_context(trained, (1,)))
    assert np.array_equal(message.payload["values"], trained)
    assert message.size.metadata_bytes == 0
    assert message.size.values_bytes > 0


def test_aggregation_is_weighted_average():
    scheme = FullSharingScheme(0, SIZE, seed=1)
    trained = np.ones(SIZE)
    neighbor_model = np.full(SIZE, 3.0)
    context = _context(trained, (1,))
    scheme.prepare(context)
    message = Message(sender=1, kind="full-model", payload={"values": neighbor_model})
    result = scheme.aggregate(context, [message])
    assert np.allclose(result, 2.0)


def test_aggregation_rejects_weights_above_one():
    scheme = FullSharingScheme(0, SIZE, seed=1)
    context = _context(np.ones(SIZE), (1,), self_weight=0.9)
    with pytest.raises(SimulationError):
        scheme.aggregate(context, [Message(sender=1, kind="full-model", payload={"values": np.ones(SIZE)})])


def test_aggregation_tolerates_missing_messages():
    """A dropped neighbor message leaves that neighbor's weight on the own model."""

    scheme = FullSharingScheme(0, SIZE, seed=1)
    trained = np.full(SIZE, 2.0)
    context = _context(trained, (1, 2))
    scheme.prepare(context)
    only_one = Message(sender=1, kind="full-model", payload={"values": np.full(SIZE, 5.0)})
    result = scheme.aggregate(context, [only_one])
    # Weight 1/3 each: 2 * (2/3) + 5 * (1/3) = 3.
    assert np.allclose(result, 3.0)


def test_incompatible_message_rejected():
    scheme = FullSharingScheme(0, SIZE, seed=1)
    context = _context(np.ones(SIZE), (1,))
    alien = Message(sender=1, kind="jwins-partial-wavelets", payload={})
    with pytest.raises(SimulationError):
        scheme.aggregate(context, [alien])


def test_non_neighbor_message_rejected():
    scheme = FullSharingScheme(0, SIZE, seed=1)
    context = _context(np.ones(SIZE), (1,))
    stranger = Message(sender=5, kind="full-model", payload={"values": np.ones(SIZE)})
    with pytest.raises(SimulationError):
        scheme.aggregate(context, [stranger])


def test_factory_builds_scheme_per_node():
    factory = full_sharing_factory()
    assert factory(3, SIZE, 7).node_id == 3
