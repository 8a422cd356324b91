"""TopK parameter sparsification baseline.

Plain TopK in the parameter domain with residual accumulation and a fixed
sharing fraction — the scheme the paper's ablation calls "JWINS without
wavelet" and discards because it over-fits to local data.  It is implemented
as a thin configuration of :class:`~repro.core.jwins.JwinsScheme`, which makes
the relationship explicit and keeps a single, well-tested code path.
"""

from __future__ import annotations

from repro.core.config import JwinsConfig
from repro.core.cutoff import CutoffDistribution
from repro.core.jwins import JwinsScheme

__all__ = ["TopKSharingScheme", "topk_sharing_factory"]


class TopKSharingScheme(JwinsScheme):
    """TopK-by-accumulated-change parameter sharing with a fixed fraction."""

    name = "topk-sharing"

    def __init__(
        self,
        node_id: int,
        model_size: int,
        seed: int,
        fraction: float = 0.37,
    ) -> None:
        config = JwinsConfig(
            cutoff=CutoffDistribution.fixed(fraction),
            use_wavelet=False,
            use_random_cutoff=False,
        )
        super().__init__(node_id, model_size, seed, config)


def topk_sharing_factory(fraction: float = 0.37):
    """Factory for :class:`TopKSharingScheme` nodes."""

    def factory(node_id: int, model_size: int, seed: int) -> TopKSharingScheme:
        return TopKSharingScheme(node_id, model_size, seed, fraction=fraction)

    return factory
