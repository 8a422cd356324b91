"""Configuration of the JWINS sharing scheme.

One dataclass holds every knob of JWINS: the wavelet family and decomposition
depth, the randomized cut-off distribution and the three ablation switches of
Figure 8 (wavelet, accumulation, randomized cut-off).  The codecs are fixed:
values go through :class:`~repro.compression.float_codec.FloatCodec`, indices
through :class:`~repro.compression.indices.EliasGammaIndexCodec`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.cutoff import CutoffDistribution
from repro.exceptions import ConfigurationError

__all__ = ["JwinsConfig"]


@dataclass(frozen=True)
class JwinsConfig:
    """All JWINS hyperparameters and ablation switches.

    Attributes
    ----------
    wavelet, levels:
        Wavelet family and decomposition depth used for the coefficient
        representation (Sym2, four levels in the paper).
    cutoff:
        Randomized cut-off distribution over sharing fractions.
    use_wavelet:
        When False the ranking and averaging happen directly in the parameter
        domain ("JWINS without wavelet", which the paper notes is essentially
        TopK).
    use_accumulation:
        When False the score is only this round's change ("JWINS without
        accumulation").
    use_random_cutoff:
        When False every round uses the distribution's expected fraction
        ("JWINS without random cut-off").
    """

    wavelet: str = "sym2"
    levels: int = 4
    cutoff: CutoffDistribution = field(default_factory=CutoffDistribution.uniform)
    use_wavelet: bool = True
    use_accumulation: bool = True
    use_random_cutoff: bool = True

    def __post_init__(self) -> None:
        if self.levels < 0:
            raise ConfigurationError("levels must be non-negative")

    # -- convenience constructors ---------------------------------------------
    @classmethod
    def paper_default(cls) -> "JwinsConfig":
        """The configuration used for Table I / Figure 4 (uniform alpha list)."""

        return cls()

    @classmethod
    def low_budget(cls, budget: float) -> "JwinsConfig":
        """The two-point alpha distribution used against CHOCO (Figure 6)."""

        return cls(cutoff=CutoffDistribution.budgeted(budget))

    def without_wavelet(self) -> "JwinsConfig":
        """Figure 8 ablation: rank and average directly in the parameter domain."""

        return replace(self, use_wavelet=False)

    def without_accumulation(self) -> "JwinsConfig":
        """Figure 8 ablation: drop the cross-round score accumulation."""

        return replace(self, use_accumulation=False)

    def without_random_cutoff(self) -> "JwinsConfig":
        """Figure 8 ablation: use a fixed sharing fraction every round."""

        return replace(self, use_random_cutoff=False)
