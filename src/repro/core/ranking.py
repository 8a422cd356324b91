"""JWINS parameter ranking: wavelet transform + accumulation (Section III-A).

The ranker maintains the accumulated importance score ``V`` of every wavelet
coefficient.  Each round it

1. adds the wavelet transform of the local model change to a working copy of
   ``V`` (Equation 3) — this is the score used for TopK selection;
2. zeroes the entries of ``V`` that were selected for sharing; and
3. after averaging, adds the wavelet transform of the *whole-round* model
   change to ``V`` (Equation 4), so that un-shared coefficients keep growing
   and shared ones restart from the change caused by averaging.
"""

from __future__ import annotations

import numpy as np

from repro.sparsification.accumulation import ResidualAccumulator
from repro.wavelets.transform import ModelTransform

__all__ = ["WaveletRanker"]


class WaveletRanker:
    """Maintains coefficient importance scores across rounds for one node."""

    def __init__(self, transform: ModelTransform, use_accumulation: bool = True) -> None:
        self.transform = transform
        self.use_accumulation = use_accumulation
        self._accumulator = ResidualAccumulator(transform.coefficient_size())

    @property
    def coefficient_size(self) -> int:
        return self._accumulator.size

    def round_scores_from_change(self, local_change: np.ndarray) -> np.ndarray:
        """Equation 3 in place: ``V' = V + DWT(x^(t,tau) - x^(t,0))``, given that DWT.

        The scheme computes the local change of a whole pass of nodes at once
        and hands each ranker its row, a float64 array the scheme owns: the
        row becomes the scores and is returned.  With accumulation disabled
        (the Figure 8 ablation) the score is just this round's change.
        """

        if self.use_accumulation:
            local_change += self._accumulator.scores
        return local_change

    def mark_shared(self, indices: np.ndarray) -> None:
        """Zero the persistent scores of coefficients that were just shared."""

        if self.use_accumulation:
            self._accumulator.reset_indices(indices)

    def end_of_round(self, params_start: np.ndarray, params_final: np.ndarray) -> None:
        """Equation 4: ``V <- V + DWT(x^(t+1,0) - x^(t,0))``, transforming the change.

        JWINS itself calls :meth:`end_of_round_from_change` with the change it
        already holds in the coefficient domain.
        """

        if not self.use_accumulation:
            return
        round_change = self.transform.forward(
            np.asarray(params_final, dtype=np.float64)
            - np.asarray(params_start, dtype=np.float64)
        )
        self._accumulator.add(round_change)

    def end_of_round_from_change(self, round_change: np.ndarray) -> None:
        """Equation 4 from a precomputed coefficient-domain round change.

        The scheme computes the whole-round change of a pass of nodes at once,
        as ``F_new - F_start``, and feeds each ranker its row.  A no-op when
        accumulation is disabled.
        """

        if not self.use_accumulation:
            return
        self._accumulator.add(round_change)

    # -- checkpointing --------------------------------------------------------------
    def state_dict(self) -> dict:
        """The persistent accumulator state, for checkpointing."""

        return self._accumulator.state_dict()

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""

        self._accumulator.load_state_dict(state)
