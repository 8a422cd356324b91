"""Deterministic random-number utilities.

Decentralized-learning experiments in this library are fully deterministic for
a given experiment seed: data partitioning, topology construction, model
initialization, mini-batch sampling and the JWINS randomized cut-off all draw
from generators derived from a single root seed.  This module centralizes how
those per-purpose generators are derived so that two components never
accidentally share a stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["SeedSequenceFactory", "derive_rng"]


@lru_cache(maxsize=256)
def _fnv1a(text: str) -> int:
    """Stable, platform-independent 32-bit FNV-1a hash of a textual component."""

    acc = 2166136261
    for byte in text.encode("utf-8"):
        acc = ((acc ^ byte) * 16777619) & 0xFFFFFFFF
    return acc


def derive_rng(seed: int, *namespace: object) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` derived from ``seed``.

    The optional ``namespace`` components (strings or integers) are hashed into
    the seed sequence, so ``derive_rng(7, "topology")`` and
    ``derive_rng(7, "init", 3)`` produce independent streams.  Every component
    is one 32-bit word, so the ``uint32`` array handed to
    :class:`numpy.random.SeedSequence` is the very pool a list of those words
    would give, without the per-word coercion.
    """

    entropy = [int(seed) & 0xFFFFFFFF]
    for part in namespace:
        if isinstance(part, (int, np.integer)):
            entropy.append(int(part) & 0xFFFFFFFF)
        else:
            entropy.append(_fnv1a(str(part)))
    return np.random.default_rng(np.random.SeedSequence(np.array(entropy, dtype=np.uint32)))


@dataclass(frozen=True)
class SeedSequenceFactory:
    """Factory producing named random generators for one experiment run.

    Parameters
    ----------
    seed:
        Root seed of the experiment run.  Different seeds correspond to the
        independent repetitions the paper averages over.
    """

    seed: int

    def rng(self, *namespace: object) -> np.random.Generator:
        """Return the generator associated with ``namespace``."""

        return derive_rng(self.seed, *namespace)

    def node_rng(self, node_id: int, *namespace: object) -> np.random.Generator:
        """Return a per-node generator (e.g. for mini-batch sampling)."""

        return derive_rng(self.seed, "node", node_id, *namespace)

    def node_seed(self, node_id: int, *namespace: object) -> int:
        """Return a stable integer seed for a node-scoped purpose."""

        rng = self.node_rng(node_id, *namespace)
        return int(rng.integers(0, 2**31 - 1))
