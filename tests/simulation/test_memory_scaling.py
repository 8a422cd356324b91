"""Building a deployment costs memory linear in its size.

The mixing weights are one row per node, so the traced allocation peak of
building a :class:`Simulator` grows with N·deg, not N².  A dense ``(N, N)``
float64 matrix would add ``8·N`` bytes per node: 16 KiB at 2,000 nodes against
4 KiB at 500, which the per-node ratio below catches.
"""

from __future__ import annotations

import tracemalloc

from repro.core import jwins_factory
from repro.simulation import ExperimentConfig, Simulator
from tests.conftest import make_toy_task


def _build_peak_bytes_per_node(num_nodes: int) -> float:
    """The tracemalloc peak of building an arena deployment, per node."""

    task = make_toy_task(train_samples=2 * num_nodes, hidden=4)
    config = ExperimentConfig(
        num_nodes=num_nodes,
        degree=6,
        rounds=1,
        batch_size=2,
        eval_nodes=8,
        eval_test_samples=16,
        seed=5,
        partition="iid",
        engine="arena",
    )
    tracemalloc.start()
    try:
        Simulator(task, jwins_factory(), config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / num_nodes


def test_building_a_deployment_allocates_no_n_by_n_array():
    small = _build_peak_bytes_per_node(500)
    large = _build_peak_bytes_per_node(2000)
    assert large <= 1.25 * small, (small, large)
