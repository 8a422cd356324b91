"""Mixing weights for decentralized averaging.

The paper runs D-PSGD with Metropolis–Hastings weights (Xiao & Boyd, 2004):
``W[i][j] = 1 / (1 + max(deg(i), deg(j)))`` for every edge, with the diagonal
absorbing the remaining mass.  The resulting matrix is symmetric and doubly
stochastic, which is what guarantees the average model is preserved by a
gossip step.

A node only ever reads its own row, so the engine holds the matrix as one
:class:`MixingRow` per node (:func:`metropolis_hastings_rows`, O(N·deg)
memory); no ``(N, N)`` matrix is ever built.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.exceptions import TopologyError
from repro.topology.graphs import Topology

__all__ = ["MixingRow", "metropolis_hastings_rows"]


class MixingRow(NamedTuple):
    """One node's row of the mixing matrix: its neighbors, their weights, its own."""

    #: Sorted neighbor ids (the topology's own adjacency tuple, not a copy).
    neighbors: tuple[int, ...]
    #: ``W[i][j]`` for each neighbor ``j``, in ``neighbors`` order.
    weights: tuple[float, ...]
    #: ``W[i][i]``.
    self_weight: float


def metropolis_hastings_rows(topology: Topology) -> tuple[MixingRow, ...]:
    """Every node's row of the Metropolis–Hastings matrix for ``topology``.

    The self weight is ``1 - sum(row)`` with the sum taken over a full
    length-N row, zeros included, as the dense matrix's row sum is: numpy
    sums pairwise, so the rounding depends on where the neighbors sit.  One
    scratch row is reused for every node, so no ``(N, N)`` array exists.
    """

    adjacency = topology._adjacency
    degrees = [len(peers) for peers in adjacency]
    scratch = np.zeros(topology.num_nodes)
    rows = []
    for node, peers in enumerate(adjacency):
        weights = tuple(1.0 / (1.0 + max(degrees[node], degrees[peer])) for peer in peers)
        columns = np.array(peers, dtype=np.intp)
        scratch[columns] = weights
        self_weight = float(1.0 - scratch.sum())
        scratch[columns] = 0.0
        if min((self_weight, *weights)) < -1e-12:
            raise TopologyError("Metropolis-Hastings weights produced a negative entry")
        rows.append(MixingRow(peers, weights, self_weight))
    return tuple(rows)
