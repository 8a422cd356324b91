"""Dense forms of a topology and of its Metropolis–Hastings mixing rows."""

import numpy as np

from repro.topology.graphs import Topology
from repro.topology.weights import metropolis_hastings_rows


def adjacency_matrix(topology: Topology) -> np.ndarray:
    """Dense symmetric 0/1 adjacency matrix."""

    matrix = np.zeros((topology.num_nodes, topology.num_nodes))
    for u, v in topology.edges:
        matrix[u, v] = 1.0
        matrix[v, u] = 1.0
    return matrix


def metropolis_hastings_weights(topology: Topology) -> np.ndarray:
    """Symmetric doubly-stochastic mixing matrix for ``topology``: the rows, dense."""

    matrix = np.zeros((topology.num_nodes, topology.num_nodes))
    for node, row in enumerate(metropolis_hastings_rows(topology)):
        matrix[node, list(row.neighbors)] = row.weights
        matrix[node, node] = row.self_weight
    return matrix
