"""Tests for the TopK parameter-sharing baseline."""

import numpy as np

from repro.baselines.topk_sharing import TopKSharingScheme, topk_sharing_factory
from repro.core.interface import RoundContext
from repro.wavelets.transform import IdentityTransform

SIZE = 64


def _context(start, trained, neighbors=()):
    weight = 1.0 / (len(neighbors) + 1)
    return RoundContext(
        round_index=0,
        params_start=start,
        params_trained=trained,
        self_weight=weight,
        neighbor_weights={n: weight for n in neighbors},
        rng=np.random.default_rng(0),
    )


def test_topk_operates_in_parameter_domain():
    scheme = TopKSharingScheme(0, SIZE, seed=1, fraction=0.25)
    assert isinstance(scheme.transform, IdentityTransform)
    assert scheme.name == "topk-sharing"


def test_topk_selects_largest_parameter_changes():
    scheme = TopKSharingScheme(0, SIZE, seed=1, fraction=0.125)
    start = np.zeros(SIZE)
    trained = np.zeros(SIZE)
    big_movers = np.array([3, 17, 40, 63])
    trained[big_movers] = 10.0
    trained[np.array([5, 6])] = 0.01
    message = scheme.prepare(_context(start, trained))
    assert set(big_movers.tolist()).issubset(set(message.payload["indices"].tolist()))


def test_fixed_fraction_every_round():
    scheme = TopKSharingScheme(0, SIZE, seed=1, fraction=0.5)
    rng = np.random.default_rng(1)
    sizes = set()
    for _ in range(3):
        message = scheme.prepare(_context(np.zeros(SIZE), rng.normal(size=SIZE)))
        sizes.add(message.payload["indices"].size)
    assert sizes == {32}


def test_accumulation_recovers_starved_coordinates():
    """A coordinate with small steady changes is eventually selected."""

    scheme = TopKSharingScheme(0, SIZE, seed=1, fraction=1.0 / SIZE)
    start = np.zeros(SIZE)
    selected_history = []
    for round_index in range(30):
        trained = start.copy()
        trained[0] += 1.0      # always the biggest mover
        trained[1] += 0.2      # small but steady
        context = _context(start, trained)
        message = scheme.prepare(context)
        selected_history.append(set(message.payload["indices"].tolist()))
        new_params = scheme.aggregate(context, [])
        start = new_params
    assert any(1 in selected for selected in selected_history)


def test_factory_configuration():
    scheme = topk_sharing_factory(fraction=0.25)(2, SIZE, 9)
    assert scheme.node_id == 2
    assert scheme.config.use_accumulation
