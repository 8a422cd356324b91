"""Sparsification substrate: TopK selection, sharing budgets, residual accumulation."""

from repro.sparsification.accumulation import ResidualAccumulator
from repro.sparsification.base import fraction_to_count
from repro.sparsification.topk import topk_indices

__all__ = [
    "ResidualAccumulator",
    "fraction_to_count",
    "topk_indices",
]
