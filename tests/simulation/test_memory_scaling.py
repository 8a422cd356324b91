"""Building a deployment costs memory linear in its size; a round frees its predecessor.

The mixing weights are one row per node, so the traced allocation peak of
building a :class:`Simulator` grows with N·deg, not N².  A dense ``(N, N)``
float64 matrix would add ``8·N`` bytes per node: 16 KiB at 2,000 nodes against
4 KiB at 500, which the per-node ratio below catches.
"""

from __future__ import annotations

import tracemalloc
import weakref

import pytest

from repro.core import jwins_factory
from repro.simulation import ENGINES, ExperimentConfig, Simulator, arena, run_experiment
from repro.simulation import engine as engine_module
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


@pytest.mark.parametrize("engine", ENGINES)
def test_a_round_s_train_output_is_freed_before_the_next_round_trains(monkeypatch, engine):
    """The lock-step loop drops round t's ``(params_start, params_trained)`` pairs.

    Otherwise they, the contexts, messages and inboxes built from them stay
    bound while round t + 1 trains: two ``(N, d)`` copies at scale.
    """

    owner, name = (arena, "train_batched") if engine == "arena" else (engine_module, "train_rows")
    train = getattr(owner, name)
    previous: list[weakref.ref] = []
    alive_at_train: list[int] = []

    def watched_train(simulator, active_nodes):
        alive_at_train.append(sum(ref() is not None for ref in previous))
        pairs = train(simulator, active_nodes)
        trained = [params_trained for _, params_trained in pairs]
        previous[:] = [weakref.ref(array) for array in trained]
        # Arena rows are views: the block they view must go too.
        previous.extend(weakref.ref(array.base) for array in trained if array.base is not None)
        return pairs

    monkeypatch.setattr(owner, name, watched_train)
    config = ExperimentConfig(
        num_nodes=6, degree=2, rounds=4, eval_every=2, seed=3, engine=engine
    )
    run_experiment(make_toy_task(), jwins_factory(), config)
    assert len(alive_at_train) == config.rounds and previous
    assert alive_at_train == [0] * config.rounds
