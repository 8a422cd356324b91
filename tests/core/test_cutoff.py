"""Tests for the randomized communication cut-off."""

import numpy as np
import pytest

from repro.core.cutoff import DEFAULT_ALPHAS, CutoffDistribution
from repro.exceptions import ConfigurationError


def test_default_distribution_matches_paper():
    distribution = CutoffDistribution.uniform()
    assert distribution.alphas == DEFAULT_ALPHAS
    assert np.allclose(distribution.probabilities, 1.0 / len(DEFAULT_ALPHAS))
    # Expected fraction ~37%, which is why random sampling uses 37% in Table I.
    assert distribution.expected_fraction() == pytest.approx(0.3428, abs=1e-3)


def test_sample_only_returns_configured_alphas():
    distribution = CutoffDistribution.uniform()
    rng = np.random.default_rng(0)
    samples = {distribution.sample(rng) for _ in range(200)}
    assert samples.issubset(set(DEFAULT_ALPHAS))
    assert len(samples) > 3


def test_empirical_mean_close_to_expected():
    distribution = CutoffDistribution.uniform()
    rng = np.random.default_rng(1)
    samples = [distribution.sample(rng) for _ in range(3000)]
    assert np.mean(samples) == pytest.approx(distribution.expected_fraction(), abs=0.02)


def test_fixed_distribution():
    distribution = CutoffDistribution.fixed(0.25)
    rng = np.random.default_rng(2)
    assert all(distribution.sample(rng) == 0.25 for _ in range(10))
    assert distribution.expected_fraction() == 0.25


def test_budgeted_twenty_percent_matches_paper():
    """Budget 20%: p(alpha=100%) = 0.1 and alpha ~= 10% otherwise."""

    distribution = CutoffDistribution.budgeted(0.20)
    assert distribution.expected_fraction() == pytest.approx(0.20, abs=1e-9)
    full_probability = dict(zip(distribution.alphas, distribution.probabilities))[1.0]
    assert full_probability == pytest.approx(0.10)
    small_alpha = min(distribution.alphas)
    assert small_alpha == pytest.approx(0.111, abs=0.01)


def test_budgeted_ten_percent_matches_paper():
    """Budget 10%: p(alpha=100%) = 0.05 and alpha ~= 5% otherwise."""

    distribution = CutoffDistribution.budgeted(0.10)
    assert distribution.expected_fraction() == pytest.approx(0.10, abs=1e-9)
    full_probability = dict(zip(distribution.alphas, distribution.probabilities))[1.0]
    assert full_probability == pytest.approx(0.05)
    assert min(distribution.alphas) == pytest.approx(0.0526, abs=0.005)


def test_budgeted_full_budget_is_full_sharing():
    distribution = CutoffDistribution.budgeted(1.0)
    assert distribution.alphas == (1.0,)


def test_nodes_sample_different_alphas_in_same_round():
    """Figure 3 left: in one round different nodes pick different fractions."""

    distribution = CutoffDistribution.uniform()
    alphas = [
        distribution.sample(np.random.default_rng(node)) for node in range(96)
    ]
    assert len(set(alphas)) >= 4


def test_invalid_distributions_raise():
    with pytest.raises(ConfigurationError):
        CutoffDistribution((0.5, 1.0), (0.5, 0.4))
    with pytest.raises(ConfigurationError):
        CutoffDistribution((0.0,), (1.0,))
    with pytest.raises(ConfigurationError):
        CutoffDistribution((), ())
    with pytest.raises(ConfigurationError):
        CutoffDistribution((0.5,), (-1.0,))
    with pytest.raises(ConfigurationError):
        CutoffDistribution.budgeted(0.0)


@pytest.mark.parametrize(
    "distribution",
    [CutoffDistribution.uniform(), CutoffDistribution.budgeted(0.2), CutoffDistribution.fixed(0.3)],
    ids=["uniform", "budgeted", "fixed"],
)
def test_sample_is_generator_choice_draw_for_draw(distribution):
    """``sample`` skips ``Generator.choice``'s per-call validation, not its draw.

    Stored results depend on both the index and the generator state left
    behind; a numpy whose ``choice(p=...)`` draws differently must fail here
    rather than silently move every store.
    """

    size = len(distribution.alphas)
    for seed in range(3000):
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            expected = distribution.alphas[numpys.choice(size, p=distribution.probabilities)]
            assert distribution.sample(ours) == expected
        assert ours.bit_generator.state == numpys.bit_generator.state
