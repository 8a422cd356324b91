"""Shared utilities: deterministic RNG derivation and flat vectors."""

from repro.utils.rng import SeedSequenceFactory, derive_rng
from repro.utils.vectors import flatten_arrays

__all__ = ["SeedSequenceFactory", "derive_rng", "flatten_arrays"]
