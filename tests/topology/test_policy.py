"""Tests for topology generators and the TopologyPolicy layer."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, TopologyError
from repro.topology import (
    TOPOLOGY_GENERATORS,
    GeneratorPolicy,
    TopologyPolicy,
    random_regular_topology,
    small_world_topology,
)
from tests.oracles.graphs import degree, is_connected


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestSmallWorld:
    def test_connected_and_correct_size(self, rng):
        topology = small_world_topology(20, 4, 0.2, rng)
        assert topology.num_nodes == 20
        assert is_connected(topology)

    def test_beta_zero_is_a_ring_lattice(self, rng):
        topology = small_world_topology(12, 4, 0.0, rng)
        # Every node keeps exactly its k ring neighbors when nothing rewires.
        assert all(degree(topology, node) == 4 for node in range(12))

    def test_rejects_bad_parameters(self, rng):
        with pytest.raises(TopologyError):
            small_world_topology(10, 1, 0.2, rng)
        with pytest.raises(TopologyError):
            small_world_topology(10, 10, 0.2, rng)
        with pytest.raises(TopologyError):
            small_world_topology(10, 4, 1.5, rng)

    def test_deterministic_given_rng_state(self):
        first = small_world_topology(16, 4, 0.3, np.random.default_rng(7))
        second = small_world_topology(16, 4, 0.3, np.random.default_rng(7))
        assert first.edges == second.edges


class TestGeneratorPolicy:
    def test_default_matches_plain_random_regular(self):
        policy = GeneratorPolicy()
        sampled = policy.initial(10, 4, np.random.default_rng(3))
        direct = random_regular_topology(10, 4, np.random.default_rng(3))
        assert sampled.edges == direct.edges

    def test_satisfies_the_protocol(self):
        assert isinstance(GeneratorPolicy(), TopologyPolicy)

    def test_static_policy_never_rewires(self, rng):
        policy = GeneratorPolicy(rewire_every=0)
        assert policy.rewire(5, 10, 4, rng) is None

    def test_rewire_every_round(self, rng):
        policy = GeneratorPolicy(rewire_every=1)
        assert policy.rewire(0, 10, 4, rng) is None  # round 0 keeps the initial graph
        assert policy.rewire(1, 10, 4, rng) is not None
        assert policy.rewire(2, 10, 4, rng) is not None

    def test_periodic_rewiring(self, rng):
        policy = GeneratorPolicy(rewire_every=3)
        fires = [r for r in range(10) if policy.rewire(r, 10, 4, rng) is not None]
        assert fires == [3, 6, 9]

    def test_every_registered_generator_builds(self, rng):
        for name in TOPOLOGY_GENERATORS:
            topology = GeneratorPolicy(generator=name).initial(12, 4, rng)
            assert topology.num_nodes == 12
            assert is_connected(topology)

    def test_unknown_generator_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown topology generator"):
            GeneratorPolicy(generator="torus")

    def test_unknown_parameter_rejected_at_sampling(self, rng):
        policy = GeneratorPolicy(generator="ring", params=(("twist", 3),))
        with pytest.raises(ConfigurationError, match="invalid parameters"):
            policy.initial(8, 2, rng)

    def test_params_are_canonically_sorted(self):
        a = GeneratorPolicy(generator="small-world", params=(("k", 4), ("beta", 0.3)))
        b = GeneratorPolicy(generator="small-world", params=(("beta", 0.3), ("k", 4)))
        assert a == b
        assert a.params == (("beta", 0.3), ("k", 4))

    def test_round_trip_is_exact(self):
        policy = GeneratorPolicy(
            generator="small-world", rewire_every=2, params=(("beta", 0.4),)
        )
        rebuilt = GeneratorPolicy.from_dict(json.loads(json.dumps(policy.to_dict())))
        assert rebuilt == policy

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError, match="unknown topology-policy"):
            GeneratorPolicy.from_dict({"generator": "ring", "cadence": 2})
