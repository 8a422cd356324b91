"""Topology substrate: communication graphs, mixing weights and policies."""

from repro.topology.graphs import (
    Topology,
    fully_connected_topology,
    random_regular_topology,
    ring_topology,
    small_world_topology,
)
from repro.topology.policy import TOPOLOGY_GENERATORS, GeneratorPolicy, TopologyPolicy
from repro.topology.weights import MixingRow, metropolis_hastings_rows

__all__ = [
    "GeneratorPolicy",
    "MixingRow",
    "TOPOLOGY_GENERATORS",
    "Topology",
    "TopologyPolicy",
    "fully_connected_topology",
    "random_regular_topology",
    "ring_topology",
    "small_world_topology",
    "metropolis_hastings_rows",
]
