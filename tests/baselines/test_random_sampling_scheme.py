"""Tests for the random-sampling sharing scheme."""

import numpy as np
import pytest

from repro.baselines.random_sampling import RandomSamplingScheme, random_sampling_factory
from repro.compression.indices import random_indices_from_seed
from repro.core.interface import RoundContext
from repro.exceptions import SimulationError

SIZE = 200


def _context(trained, round_index=0, neighbors=(1,)):
    weight = 1.0 / (len(neighbors) + 1)
    return RoundContext(
        round_index=round_index,
        params_start=np.zeros(SIZE),
        params_trained=trained,
        self_weight=weight,
        neighbor_weights={n: weight for n in neighbors},
        rng=np.random.default_rng(round_index),
    )


def test_shares_requested_fraction():
    scheme = RandomSamplingScheme(0, SIZE, seed=1, fraction=0.25)
    message = scheme.prepare(_context(np.random.default_rng(0).normal(size=SIZE)))
    assert message.payload["indices"].size == 50
    assert message.payload["values"].size == 50


def test_metadata_is_only_a_seed():
    scheme = RandomSamplingScheme(0, SIZE, seed=1, fraction=0.25)
    message = scheme.prepare(_context(np.zeros(SIZE)))
    assert message.size.metadata_bytes == 8


def test_selection_changes_each_round_but_is_reproducible():
    scheme_a = RandomSamplingScheme(0, SIZE, seed=1, fraction=0.2)
    scheme_b = RandomSamplingScheme(0, SIZE, seed=1, fraction=0.2)
    trained = np.zeros(SIZE)
    first_a = scheme_a.prepare(_context(trained, round_index=0)).payload["indices"]
    first_b = scheme_b.prepare(_context(trained, round_index=0)).payload["indices"]
    second_a = scheme_a.prepare(_context(trained, round_index=1)).payload["indices"]
    assert np.array_equal(first_a, first_b)
    assert not np.array_equal(first_a, second_a)


def test_selection_is_independent_of_the_trained_values():
    zeros = RandomSamplingScheme(0, SIZE, seed=3, fraction=0.1).prepare(_context(np.zeros(SIZE)))
    noise = np.random.default_rng(0).normal(size=SIZE)
    noisy = RandomSamplingScheme(0, SIZE, seed=3, fraction=0.1).prepare(_context(noise))
    assert np.array_equal(zeros.payload["indices"], noisy.payload["indices"])


def test_payload_seed_regenerates_the_indices():
    scheme = RandomSamplingScheme(0, SIZE, seed=5, fraction=0.2)
    message = scheme.prepare(_context(np.zeros(SIZE), round_index=4))
    regenerated = random_indices_from_seed(message.payload["seed"], 40, SIZE)
    assert np.array_equal(regenerated, message.payload["indices"])


def test_full_fraction_shares_every_parameter():
    scheme = RandomSamplingScheme(0, SIZE, seed=2, fraction=1.0)
    message = scheme.prepare(_context(np.zeros(SIZE)))
    assert np.array_equal(message.payload["indices"], np.arange(SIZE))
    assert message.shared_fraction == 1.0


def test_values_match_selected_parameters():
    scheme = RandomSamplingScheme(0, SIZE, seed=3, fraction=0.3)
    trained = np.random.default_rng(2).normal(size=SIZE)
    message = scheme.prepare(_context(trained))
    assert np.allclose(message.payload["values"], trained[message.payload["indices"]])


def test_aggregation_fills_missing_with_own_values():
    scheme = RandomSamplingScheme(0, SIZE, seed=1, fraction=0.5)
    peer = RandomSamplingScheme(1, SIZE, seed=2, fraction=0.5)
    own = np.zeros(SIZE)
    other = np.ones(SIZE)
    context = _context(own)
    scheme.prepare(context)
    peer_message = peer.prepare(_context(other))
    result = scheme.aggregate(context, [peer_message])
    shared = peer_message.payload["indices"]
    unshared = np.setdiff1d(np.arange(SIZE), shared)
    assert np.allclose(result[shared], 0.5)
    assert np.allclose(result[unshared], 0.0)


def test_invalid_fraction_raises():
    with pytest.raises(SimulationError):
        RandomSamplingScheme(0, SIZE, seed=1, fraction=0.0)


def test_factory_uses_fraction():
    scheme = random_sampling_factory(fraction=0.1)(0, SIZE, 1)
    message = scheme.prepare(_context(np.zeros(SIZE)))
    assert message.payload["indices"].size == 20
