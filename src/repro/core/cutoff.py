"""JWINS randomized communication cut-off (Section III-B).

Instead of a global sharing fraction, every node independently samples the
fraction of coefficients it shares this round ("alpha") from a distribution
chosen to respect the overall communication budget.  The paper motivates the
randomization three ways: slow-changing parameters eventually get shared, the
network is never congested by all nodes using a large alpha at once, and herd
behaviour (everyone suddenly sharing over-specialized parameters) is avoided.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["CutoffDistribution"]

#: The paper's default alpha list (Section IV-B f): uniform over these fractions.
DEFAULT_ALPHAS = (0.10, 0.15, 0.20, 0.25, 0.30, 0.40, 1.00)


@dataclass(frozen=True)
class CutoffDistribution:
    """A discrete distribution over sharing fractions ``alpha``."""

    alphas: tuple[float, ...]
    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.alphas) != len(self.probabilities) or not self.alphas:
            raise ConfigurationError("alphas and probabilities must be non-empty and aligned")
        if any(not 0.0 < alpha <= 1.0 for alpha in self.alphas):
            raise ConfigurationError("every alpha must lie in (0, 1]")
        if any(p < 0.0 for p in self.probabilities):
            raise ConfigurationError("probabilities must be non-negative")
        total = float(sum(self.probabilities))
        if not np.isclose(total, 1.0, atol=1e-9):
            raise ConfigurationError(f"probabilities must sum to 1, got {total}")
        # What ``Generator.choice(p=...)`` recomputes on every call, after
        # re-validating ``p``.  Not a field: equality and repr ignore it.
        cdf = np.cumsum(np.asarray(self.probabilities, dtype=np.float64))
        object.__setattr__(self, "_cdf", cdf / cdf[-1])

    # -- constructors ---------------------------------------------------------
    @classmethod
    def uniform(cls, alphas: tuple[float, ...] = DEFAULT_ALPHAS) -> "CutoffDistribution":
        """Uniform distribution over ``alphas`` (the paper's default)."""

        count = len(alphas)
        return cls(tuple(alphas), tuple(1.0 / count for _ in range(count)))

    @classmethod
    def fixed(cls, alpha: float) -> "CutoffDistribution":
        """Degenerate distribution: always share fraction ``alpha``.

        Used by the "JWINS without random cut-off" ablation and by the plain
        random-sampling / TopK baselines.
        """

        return cls((float(alpha),), (1.0,))

    @classmethod
    def budgeted(cls, budget: float) -> "CutoffDistribution":
        """The paper's two-point distribution for a low communication budget.

        For a budget ``b`` the node shares the full model with probability
        ``b / 2`` and a small fraction the rest of the time, chosen so that the
        expected shared fraction equals ``b``.  With ``b = 0.2`` this yields
        ``p(alpha=100%) = 0.1`` and ``alpha = 10%`` otherwise; with ``b = 0.1``
        it yields ``p(alpha=100%) = 0.05`` and ``alpha ~= 5%`` otherwise —
        exactly the distributions used in the CHOCO comparison (Section IV-D).
        """

        if not 0.0 < budget <= 1.0:
            raise ConfigurationError("budget must be in (0, 1]")
        if budget == 1.0:
            return cls.fixed(1.0)
        p_full = budget / 2.0
        small_alpha = (budget - p_full) / (1.0 - p_full)
        return cls((small_alpha, 1.0), (1.0 - p_full, p_full))

    # -- behaviour ------------------------------------------------------------
    def sample(self, rng: np.random.Generator) -> float:
        """Draw one sharing fraction.

        Index and generator state afterwards are those of
        ``rng.choice(len(alphas), p=probabilities)``: one uniform draw looked
        up in the CDF (pinned against numpy in ``tests/core/test_cutoff.py``).
        """

        index = self._cdf.searchsorted(rng.random(), side="right")
        return float(self.alphas[index])

    def expected_fraction(self) -> float:
        """The mean sharing fraction (the long-run communication budget)."""

        return float(np.dot(self.alphas, self.probabilities))
