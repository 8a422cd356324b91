"""Topology substrate: communication graphs, mixing weights and policies."""

from repro.topology.graphs import (
    DynamicTopology,
    Topology,
    clustered_topology,
    fully_connected_topology,
    random_regular_topology,
    ring_topology,
    small_world_topology,
    star_topology,
)
from repro.topology.policy import (
    TOPOLOGY_GENERATORS,
    GeneratorPolicy,
    TopologyPolicy,
    topology_policy_from_dict,
)
from repro.topology.weights import (
    MixingRow,
    metropolis_hastings_rows,
    metropolis_hastings_weights,
    uniform_neighbor_weights,
)

__all__ = [
    "DynamicTopology",
    "GeneratorPolicy",
    "MixingRow",
    "TOPOLOGY_GENERATORS",
    "Topology",
    "TopologyPolicy",
    "clustered_topology",
    "fully_connected_topology",
    "random_regular_topology",
    "ring_topology",
    "small_world_topology",
    "star_topology",
    "topology_policy_from_dict",
    "metropolis_hastings_rows",
    "metropolis_hastings_weights",
    "uniform_neighbor_weights",
]
