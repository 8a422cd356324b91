"""Adjacency queries over a topology's edge list, by definition.

``Topology`` holds only ``num_nodes`` and ``edges`` (plus the cached adjacency
the mixing rows read); tests ask who neighbours whom through these scans.
:func:`adjacency` is :func:`neighbors` for every node from one scan, for
oracles that ask about every node of a large graph.
"""

import networkx as nx

from repro.topology.graphs import Topology


def neighbors(topology: Topology, node: int) -> list[int]:
    """Sorted neighbours of ``node``: a scan of every edge."""

    found = set()
    for u, v in topology.edges:
        if u == node:
            found.add(v)
        elif v == node:
            found.add(u)
    return sorted(found)


def adjacency(topology: Topology) -> list[list[int]]:
    """``neighbors(topology, node)`` for every node, from one scan of the edges."""

    found = [set() for _ in range(topology.num_nodes)]
    for u, v in topology.edges:
        found[u].add(v)
        found[v].add(u)
    return [sorted(node_neighbors) for node_neighbors in found]


def degree(topology: Topology, node: int) -> int:
    return len(neighbors(topology, node))


def is_connected(topology: Topology) -> bool:
    graph = nx.Graph()
    graph.add_nodes_from(range(topology.num_nodes))
    graph.add_edges_from(topology.edges)
    return nx.is_connected(graph)
