"""Tests for mixing-weight matrices."""

import numpy as np
import pytest

from repro.topology.graphs import (
    Topology,
    fully_connected_topology,
    random_regular_topology,
    ring_topology,
    small_world_topology,
)
from repro.topology.weights import metropolis_hastings_rows
from tests.oracles.graphs import adjacency
from tests.oracles.weights import adjacency_matrix, metropolis_hastings_weights


def _star(num_nodes: int) -> Topology:
    """Node 0 joined to every other node: the widest degree imbalance."""

    return Topology(num_nodes=num_nodes, edges=tuple((0, node) for node in range(1, num_nodes)))


@pytest.fixture
def topology():
    return random_regular_topology(12, 4, np.random.default_rng(0))


def _dense_builder(topology):
    """The dense N x N builder the rows replaced, frozen here as their oracle."""

    size = topology.num_nodes
    degrees = [len(node_neighbors) for node_neighbors in adjacency(topology)]
    matrix = np.zeros((size, size))
    for u, v in topology.edges:
        weight = 1.0 / (1.0 + max(degrees[u], degrees[v]))
        matrix[u, v] = weight
        matrix[v, u] = weight
    for node in range(size):
        matrix[node, node] = 1.0 - matrix[node].sum()
    return matrix


GRAPHS = {
    "ring": lambda n, rng: ring_topology(n),
    "star": lambda n, rng: _star(n),
    "fully-connected": lambda n, rng: fully_connected_topology(n),
    "random-regular": lambda n, rng: random_regular_topology(n, 6, rng),
    "small-world": lambda n, rng: small_world_topology(n, 4, 0.3, rng),
}
#: numpy's pairwise sum changes association at 8 and 128 elements.
SIZES = (2, 3, 9, 127, 129, 257, 1000)
#: The random families need more nodes than their degree.
CASES = [
    (family, n)
    for family in GRAPHS
    for n in SIZES
    if n >= 9 or family in ("ring", "star", "fully-connected")
]


@pytest.mark.parametrize("family, num_nodes", CASES)
def test_rows_are_the_dense_builder_bit_for_bit(family, num_nodes):
    topology = GRAPHS[family](num_nodes, np.random.default_rng(num_nodes))
    reference = _dense_builder(topology)
    rows = metropolis_hastings_rows(topology)

    expected_neighbors = adjacency(topology)

    self_weights = np.array([row.self_weight for row in rows])
    assert self_weights.view(np.uint64).tolist() == np.diag(reference).view(np.uint64).tolist()
    for node, row in enumerate(rows):
        assert list(row.neighbors) == expected_neighbors[node]
        expected = reference[node, list(row.neighbors)]
        assert np.array(row.weights).view(np.uint64).tolist() == expected.view(np.uint64).tolist()
    # Every other entry is zero: the densified rows are the reference's bytes.
    assert metropolis_hastings_weights(topology).tobytes() == reference.tobytes()


def test_metropolis_hastings_doubly_stochastic(topology):
    weights = metropolis_hastings_weights(topology)
    assert np.allclose(weights.sum(axis=0), 1.0)
    assert np.allclose(weights.sum(axis=1), 1.0)
    assert np.all(weights >= -1e-12)


def test_metropolis_hastings_symmetric(topology):
    weights = metropolis_hastings_weights(topology)
    assert np.allclose(weights, weights.T)


def test_metropolis_hastings_zero_on_non_edges(topology):
    weights = metropolis_hastings_weights(topology)
    adjacency = adjacency_matrix(topology)
    off_diagonal = ~np.eye(topology.num_nodes, dtype=bool)
    assert np.all(weights[off_diagonal & (adjacency == 0)] == 0)


def test_metropolis_hastings_regular_graph_values(topology):
    """On a d-regular graph every edge weight is 1 / (d + 1)."""

    weights = metropolis_hastings_weights(topology)
    for u, v in topology.edges:
        assert weights[u, v] == pytest.approx(1.0 / 5.0)


def test_metropolis_hastings_star_graph_handles_degree_imbalance():
    weights = metropolis_hastings_weights(_star(6))
    assert np.allclose(weights.sum(axis=1), 1.0)
    assert np.all(np.diag(weights) >= 0)


def test_gossip_step_preserves_average(topology):
    weights = metropolis_hastings_weights(topology)
    values = np.random.default_rng(1).normal(size=(topology.num_nodes, 3))
    mixed = weights @ values
    assert np.allclose(mixed.mean(axis=0), values.mean(axis=0))


def test_repeated_gossip_converges_to_consensus():
    topology = ring_topology(8)
    weights = metropolis_hastings_weights(topology)
    values = np.random.default_rng(2).normal(size=8)
    mixed = values.copy()
    for _ in range(200):
        mixed = weights @ mixed
    assert np.allclose(mixed, values.mean(), atol=1e-6)
