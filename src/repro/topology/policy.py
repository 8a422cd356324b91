"""Topology policies: which graph a deployment uses and when it is rewired.

A :class:`TopologyPolicy` answers two questions the simulation engine asks:
what is the *initial* communication graph, and does the graph change at a
given round?  The engine holds one policy per run and drives it from a single
dedicated RNG stream (``seeds.rng("topology")``), so every policy decision is
deterministic for a given experiment seed.

:class:`GeneratorPolicy` is the serializable concrete implementation used by
the scenario subsystem: it names a generator from
:data:`TOPOLOGY_GENERATORS`, optional generator parameters and a rewiring
cadence.  ``rewire_every=0`` is a static graph; ``rewire_every=1`` re-samples
every round (the paper's Section IV-D dynamic topology); larger values rewire
periodically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Protocol, runtime_checkable

import numpy as np

from repro.exceptions import ConfigurationError
from repro.topology.graphs import (
    Topology,
    fully_connected_topology,
    random_regular_topology,
    ring_topology,
    small_world_topology,
)

__all__ = [
    "GeneratorPolicy",
    "TOPOLOGY_GENERATORS",
    "TopologyPolicy",
]


@runtime_checkable
class TopologyPolicy(Protocol):
    """What the engine needs from a topology policy (structural protocol)."""

    def initial(
        self, num_nodes: int, degree: int, rng: np.random.Generator
    ) -> Topology:
        """The graph the deployment starts on."""

    def rewire(
        self, round_index: int, num_nodes: int, degree: int, rng: np.random.Generator
    ) -> Topology | None:
        """The graph for ``round_index``, or ``None`` to keep the current one."""


def _random_regular(
    num_nodes: int, degree: int, rng: np.random.Generator
) -> Topology:
    return random_regular_topology(num_nodes, degree, rng)


def _small_world(
    num_nodes: int,
    degree: int,
    rng: np.random.Generator,
    beta: float = 0.2,
    k: int | None = None,
) -> Topology:
    return small_world_topology(
        num_nodes, degree if k is None else int(k), float(beta), rng
    )


def _ring(num_nodes: int, degree: int, rng: np.random.Generator) -> Topology:
    return ring_topology(num_nodes)


def _fully_connected(
    num_nodes: int, degree: int, rng: np.random.Generator
) -> Topology:
    return fully_connected_topology(num_nodes)


#: Generator name -> ``callable(num_nodes, degree, rng, **params) -> Topology``.
TOPOLOGY_GENERATORS: dict[str, Callable[..., Topology]] = {
    "random-regular": _random_regular,
    "small-world": _small_world,
    "ring": _ring,
    "fully-connected": _fully_connected,
}


@dataclass(frozen=True)
class GeneratorPolicy:
    """Serializable :class:`TopologyPolicy` backed by a named generator.

    Attributes
    ----------
    generator:
        Key into :data:`TOPOLOGY_GENERATORS`.
    rewire_every:
        ``0`` keeps the initial graph for the whole run; ``n > 0`` re-samples
        at every round index that is a positive multiple of ``n``.
    params:
        Extra generator keyword arguments, stored as a sorted tuple of
        ``(name, value)`` pairs so the policy stays hashable and its canonical
        JSON is order-independent.
    """

    generator: str = "random-regular"
    rewire_every: int = 0
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.generator not in TOPOLOGY_GENERATORS:
            raise ConfigurationError(
                f"unknown topology generator {self.generator!r}; "
                f"available: {', '.join(sorted(TOPOLOGY_GENERATORS))}"
            )
        if self.rewire_every < 0:
            raise ConfigurationError("rewire_every must be non-negative")
        params = self.params
        if isinstance(params, Mapping):
            pairs = params.items()
        else:
            pairs = tuple(params)
        normalized = tuple(sorted((str(name), value) for name, value in pairs))
        for _, value in normalized:
            if not isinstance(value, (str, int, float, bool)):
                raise ConfigurationError(
                    "topology generator parameters must be plain scalars"
                )
        object.__setattr__(self, "params", normalized)

    @property
    def params_dict(self) -> dict[str, Any]:
        return dict(self.params)

    def _sample(
        self, num_nodes: int, degree: int, rng: np.random.Generator
    ) -> Topology:
        try:
            return TOPOLOGY_GENERATORS[self.generator](
                num_nodes, degree, rng, **self.params_dict
            )
        except TypeError as error:
            raise ConfigurationError(
                f"invalid parameters for topology generator {self.generator!r}: {error}"
            ) from error

    # -- TopologyPolicy protocol ---------------------------------------------------
    def initial(
        self, num_nodes: int, degree: int, rng: np.random.Generator
    ) -> Topology:
        return self._sample(num_nodes, degree, rng)

    def rewire(
        self, round_index: int, num_nodes: int, degree: int, rng: np.random.Generator
    ) -> Topology | None:
        if self.rewire_every <= 0 or round_index <= 0:
            return None
        if round_index % self.rewire_every != 0:
            return None
        return self._sample(num_nodes, degree, rng)

    # -- (de)serialization ---------------------------------------------------------
    # Hand-written, not the record codec's: ``params`` is pairs here, a mapping in JSON.
    def to_dict(self) -> dict[str, Any]:
        """JSON-safe representation; exact inverse of :meth:`from_dict`."""

        return {
            "generator": self.generator,
            "rewire_every": int(self.rewire_every),
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "GeneratorPolicy":
        """Rebuild a policy from :meth:`to_dict` output."""

        unknown = sorted(set(data) - {"generator", "rewire_every", "params"})
        if unknown:
            raise ConfigurationError(
                f"unknown topology-policy field(s): {', '.join(unknown)}"
            )
        return cls(
            generator=data.get("generator", "random-regular"),
            rewire_every=int(data.get("rewire_every", 0)),
            params=tuple(dict(data.get("params", {})).items()),
        )
