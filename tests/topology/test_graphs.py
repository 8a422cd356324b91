"""Tests for communication topologies."""

from dataclasses import fields, replace

import numpy as np
import pytest

from repro.exceptions import TopologyError
from repro.topology.graphs import (
    Topology,
    fully_connected_topology,
    random_regular_topology,
    ring_topology,
    small_world_topology,
)
from tests.oracles.graphs import adjacency, degree, is_connected, neighbors


def test_random_regular_topology_degrees():
    topology = random_regular_topology(16, 4, np.random.default_rng(0))
    assert topology.num_nodes == 16
    for node in range(16):
        assert degree(topology, node) == 4
    assert is_connected(topology)


def test_random_regular_topology_is_deterministic_per_rng():
    a = random_regular_topology(12, 4, np.random.default_rng(7))
    b = random_regular_topology(12, 4, np.random.default_rng(7))
    assert a.edges == b.edges


def test_random_regular_odd_product_raises():
    with pytest.raises(TopologyError):
        random_regular_topology(5, 3, np.random.default_rng(0))


def test_random_regular_degree_too_large_raises():
    with pytest.raises(TopologyError):
        random_regular_topology(4, 4, np.random.default_rng(0))


def test_ring_topology_structure():
    topology = ring_topology(6)
    assert len(topology.edges) == 6
    assert neighbors(topology, 0) == [1, 5]
    assert is_connected(topology)


def test_fully_connected_topology():
    topology = fully_connected_topology(5)
    assert len(topology.edges) == 10
    for node in range(5):
        assert degree(topology, node) == 4


def test_topology_rejects_self_loops():
    with pytest.raises(TopologyError):
        Topology(num_nodes=3, edges=((0, 0),))


def test_topology_rejects_unknown_nodes():
    with pytest.raises(TopologyError):
        Topology(num_nodes=3, edges=((0, 5),))


# -- the cached adjacency against the edge-scan oracle ---------------------------------
_ORACLE_GRAPHS = {
    "ring": lambda: ring_topology(9),
    "star": lambda: Topology(num_nodes=7, edges=tuple((min(2, v), max(2, v)) for v in range(7) if v != 2)),
    "regular-8": lambda: random_regular_topology(8, 3, np.random.default_rng(0)),
    "regular-96": lambda: random_regular_topology(96, 4, np.random.default_rng(1)),
    "regular-384": lambda: random_regular_topology(384, 6, np.random.default_rng(2)),
    "small-world": lambda: small_world_topology(24, 4, 0.3, np.random.default_rng(3)),
    # Node 3 is isolated, and the duplicate / reversed edges must collapse.
    "isolated": lambda: Topology(num_nodes=5, edges=((0, 1), (1, 0), (0, 1), (2, 4), (1, 2))),
}


@pytest.mark.parametrize("name", sorted(_ORACLE_GRAPHS))
def test_adjacency_matches_the_edge_scan_oracle(name):
    topology = _ORACLE_GRAPHS[name]()
    assert [list(peers) for peers in topology._adjacency] == [
        neighbors(topology, node) for node in range(topology.num_nodes)
    ]


@pytest.mark.parametrize("name", sorted(_ORACLE_GRAPHS))
def test_the_one_scan_oracle_is_the_per_node_scan(name):
    topology = _ORACLE_GRAPHS[name]()
    assert adjacency(topology) == [neighbors(topology, node) for node in range(topology.num_nodes)]


class _CountingEdges(tuple):
    """An edge tuple that counts how many times it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1  # per instance: the class attribute stays 0
        return super().__iter__()


def test_adjacency_lookups_do_not_rescan_the_edge_list():
    num_nodes = 64
    edges = _CountingEdges(ring_topology(num_nodes).edges)
    topology = Topology(num_nodes=num_nodes, edges=edges)
    after_construction = edges.iterations
    for _ in range(3):
        for node in range(num_nodes):
            topology._adjacency[node]
    # One pass builds the adjacency; 3 * N lookups add none.
    assert edges.iterations - after_construction <= 1


def test_adjacency_cache_is_invisible_to_equality_hash_and_replace():
    warm = ring_topology(6)
    warm._adjacency
    cold = ring_topology(6)
    assert warm == cold and hash(warm) == hash(cold)
    assert [field.name for field in fields(warm)] == ["num_nodes", "edges"]
    grown = replace(warm, edges=warm.edges + ((0, 3),))
    assert grown._adjacency[0] == (1, 3, 5)  # the copy rebuilt its own adjacency
