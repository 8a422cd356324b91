"""Property-based tests for topologies and mixing weights."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology.graphs import random_regular_topology, ring_topology
from tests.oracles import graphs
from tests.oracles.weights import metropolis_hastings_weights


@settings(max_examples=25, deadline=None)
@given(
    num_nodes=st.integers(min_value=4, max_value=40),
    degree=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_regular_topology_and_weights_invariants(num_nodes, degree, seed):
    if degree >= num_nodes or (num_nodes * degree) % 2 != 0:
        return
    topology = random_regular_topology(num_nodes, degree, np.random.default_rng(seed))
    assert graphs.is_connected(topology)
    degrees = [graphs.degree(topology, node) for node in range(num_nodes)]
    assert set(degrees) == {degree}

    weights = metropolis_hastings_weights(topology)
    assert np.allclose(weights, weights.T)
    assert np.allclose(weights.sum(axis=1), 1.0)
    assert np.all(weights >= -1e-12)


@settings(max_examples=25, deadline=None)
@given(
    num_nodes=st.integers(min_value=3, max_value=60),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_gossip_preserves_global_average(num_nodes, seed):
    """One mixing step never changes the network-wide average model."""

    topology = ring_topology(num_nodes)
    weights = metropolis_hastings_weights(topology)
    values = np.random.default_rng(seed).normal(size=(num_nodes, 4))
    mixed = weights @ values
    assert np.allclose(mixed.mean(axis=0), values.mean(axis=0), atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(
    num_nodes=st.integers(min_value=3, max_value=30),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_gossip_contracts_disagreement(num_nodes, seed):
    """Mixing never increases the spread (variance) of node values."""

    topology = ring_topology(num_nodes)
    weights = metropolis_hastings_weights(topology)
    values = np.random.default_rng(seed).normal(size=num_nodes)
    mixed = weights @ values
    assert np.var(mixed) <= np.var(values) + 1e-12
