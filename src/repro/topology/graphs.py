"""Communication topologies.

Nodes in decentralized learning are connected according to an undirected graph
G = (V, E); the paper uses random d-regular graphs (d = 4 for 96 nodes, up to
d = 6 for 384 nodes) and, in Section IV-D, a *dynamic* topology that is
re-sampled every round.  Construction is backed by :mod:`networkx` and every
topology is validated to be connected so the decentralized averaging mixes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import networkx as nx
import numpy as np

from repro.exceptions import TopologyError

__all__ = [
    "Topology",
    "fully_connected_topology",
    "random_regular_topology",
    "ring_topology",
    "small_world_topology",
]


@dataclass(frozen=True)
class Topology:
    """An undirected communication graph over ``num_nodes`` nodes."""

    num_nodes: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.num_nodes <= 1:
            raise TopologyError("a topology needs at least two nodes")
        for u, v in self.edges:
            if u == v:
                raise TopologyError("self loops are not allowed")
            if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
                raise TopologyError(f"edge ({u}, {v}) references an unknown node")

    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor tuple per node, built from one pass over ``edges``.

        A cached property rather than a field, so equality, hashing,
        ``dataclasses.replace`` and snapshots see ``num_nodes`` and ``edges`` only.
        """

        found: list[set[int]] = [set() for _ in range(self.num_nodes)]
        for u, v in self.edges:
            found[u].add(v)
            found[v].add(u)
        return tuple(tuple(sorted(peers)) for peers in found)


def _from_networkx(graph: nx.Graph, num_nodes: int) -> Topology:
    edges = tuple(sorted((min(u, v), max(u, v)) for u, v in graph.edges()))
    return Topology(num_nodes=num_nodes, edges=edges)


def random_regular_topology(
    num_nodes: int, degree: int, rng: np.random.Generator
) -> Topology:
    """A connected random d-regular graph (the paper's default topology)."""

    if degree >= num_nodes:
        raise TopologyError("degree must be smaller than the number of nodes")
    if (num_nodes * degree) % 2 != 0:
        raise TopologyError("num_nodes * degree must be even for a regular graph")
    for attempt in range(100):
        seed = int(rng.integers(0, 2**31 - 1))
        graph = nx.random_regular_graph(degree, num_nodes, seed=seed)
        if nx.is_connected(graph):
            return _from_networkx(graph, num_nodes)
    raise TopologyError(
        f"failed to sample a connected {degree}-regular graph over {num_nodes} nodes"
    )


def ring_topology(num_nodes: int) -> Topology:
    """A simple ring (each node has exactly two neighbors)."""

    edges = tuple((i, (i + 1) % num_nodes) for i in range(num_nodes))
    normalized = tuple(sorted((min(u, v), max(u, v)) for u, v in edges))
    return Topology(num_nodes=num_nodes, edges=normalized)


def fully_connected_topology(num_nodes: int) -> Topology:
    """The complete graph (every node talks to every other node)."""

    edges = tuple((i, j) for i in range(num_nodes) for j in range(i + 1, num_nodes))
    return Topology(num_nodes=num_nodes, edges=edges)


def small_world_topology(
    num_nodes: int, k: int, beta: float, rng: np.random.Generator
) -> Topology:
    """A connected Watts–Strogatz small-world graph.

    Each node starts on a ring wired to its ``k`` nearest neighbors (``k`` is
    treated as even by the underlying construction) and every ring edge is
    rewired to a random endpoint with probability ``beta``.  ``beta = 0`` is a
    regular ring lattice, ``beta = 1`` approaches a random graph; intermediate
    values give the short-path/high-clustering regime scenario experiments use.
    """

    if k < 2:
        raise TopologyError("small-world k must be at least 2")
    if k >= num_nodes:
        raise TopologyError("small-world k must be smaller than the number of nodes")
    if not 0.0 <= beta <= 1.0:
        raise TopologyError("small-world beta must be in [0, 1]")
    for attempt in range(100):
        seed = int(rng.integers(0, 2**31 - 1))
        graph = nx.watts_strogatz_graph(num_nodes, k, beta, seed=seed)
        if nx.is_connected(graph):
            return _from_networkx(graph, num_nodes)
    raise TopologyError(
        f"failed to sample a connected small-world graph over {num_nodes} nodes"
    )
