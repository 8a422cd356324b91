"""Shared utilities: deterministic RNG derivation, statistics, vectors."""

from repro.utils.rng import SeedSequenceFactory, derive_rng, spawn_seeds
from repro.utils.statistics import ConfidenceInterval, RunningMean, mean_confidence_interval
from repro.utils.vectors import flatten_arrays, unflatten_vector

__all__ = [
    "SeedSequenceFactory",
    "derive_rng",
    "spawn_seeds",
    "ConfidenceInterval",
    "RunningMean",
    "mean_confidence_interval",
    "flatten_arrays",
    "unflatten_vector",
]
