"""Declarative scheme registry: name + JSON-safe params -> scheme factory.

The sweep subsystem cannot hold live :class:`~repro.core.interface.SchemeFactory`
callables — an :class:`~repro.orchestration.spec.ExperimentSpec` must be
hashable, serializable and reconstructible inside a worker process.  This
registry is the bridge: every scheme the CLI knows is registered here by its
builder, whose signature declares the tunable parameters and their defaults,
and :func:`build_scheme_factory` turns a ``(name, params)`` pair back into a
configured factory.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.baselines import (
    choco_factory,
    full_sharing_factory,
    quantized_sharing_factory,
    random_sampling_factory,
    topk_sharing_factory,
)
from repro.core import JwinsConfig, adaptive_jwins_factory, jwins_factory
from repro.core.interface import SchemeFactory
from repro.exceptions import ConfigurationError
from repro.utils.records import Record

__all__ = [
    "SCHEME_REGISTRY",
    "SchemeSpec",
    "available_schemes",
    "build_scheme_factory",
    "describe_schemes",
]


def _jwins_config(budget: float | None) -> JwinsConfig:
    if budget is None:
        return JwinsConfig.paper_default()
    return JwinsConfig.low_budget(budget)


def _build_jwins(budget: float | None = None) -> SchemeFactory:
    return jwins_factory(_jwins_config(budget))


def _build_jwins_adaptive(budget: float | None = None) -> SchemeFactory:
    return adaptive_jwins_factory(_jwins_config(budget))


@dataclass(frozen=True)
class _RegisteredScheme:
    """One registry entry: the builder and what it builds."""

    builder: Callable[..., SchemeFactory]
    description: str

    @property
    def params(self) -> tuple[str, ...]:
        """The builder's parameters: the values a spec may set."""

        return tuple(inspect.signature(self.builder).parameters)


SCHEME_REGISTRY: dict[str, _RegisteredScheme] = {
    "jwins": _RegisteredScheme(
        _build_jwins,
        "JWINS with the paper-default alpha distribution (or a budgeted one)",
    ),
    "jwins-adaptive": _RegisteredScheme(
        _build_jwins_adaptive,
        "JWINS with the adaptive wavelet-level selection",
    ),
    "full-sharing": _RegisteredScheme(
        full_sharing_factory,
        "D-PSGD baseline sharing the full model every round",
    ),
    "random-sampling": _RegisteredScheme(
        random_sampling_factory,
        "uniformly random parameter subset of the given fraction",
    ),
    "topk": _RegisteredScheme(
        topk_sharing_factory,
        "largest-magnitude parameter subset of the given fraction",
    ),
    "choco": _RegisteredScheme(
        choco_factory,
        "CHOCO-SGD with TopK compression and consensus step size gamma",
    ),
    "quantized": _RegisteredScheme(
        quantized_sharing_factory,
        "uniform scalar quantization of the full model",
    ),
}


def available_schemes() -> tuple[str, ...]:
    """The registered scheme names, in registry order."""

    return tuple(SCHEME_REGISTRY)


def build_scheme_factory(name: str, params: Mapping[str, Any] | None = None) -> SchemeFactory:
    """Build a configured scheme factory from a registry name and parameters.

    Unknown names and unknown parameters raise
    :class:`~repro.exceptions.ConfigurationError` naming the valid choices, so
    a typo in a sweep spec fails at expansion time, not inside a worker.
    """

    entry = SCHEME_REGISTRY.get(name)
    if entry is None:
        raise ConfigurationError(
            f"unknown scheme {name!r}; choose from {', '.join(SCHEME_REGISTRY)}"
        )
    params = dict(params or {})
    unknown = sorted(set(params) - set(entry.params))
    if unknown:
        allowed = ", ".join(entry.params) if entry.params else "none"
        raise ConfigurationError(
            f"scheme {name!r} does not accept parameter(s) {', '.join(unknown)}; "
            f"allowed: {allowed}"
        )
    return entry.builder(**params)


def describe_schemes() -> str:
    """A human-readable listing of the registry (used by ``--list-schemes``)."""

    lines = []
    for name, entry in SCHEME_REGISTRY.items():
        params = f" (params: {', '.join(entry.params)})" if entry.params else ""
        lines.append(f"{name:16s} {entry.description}{params}")
    return "\n".join(lines)


@dataclass(frozen=True)
class SchemeSpec(Record):
    """A scheme reference a sweep can serialize: registry name + parameters.

    ``label`` names the cell in stores, reports and result mappings; it
    defaults to the scheme name, with the parameters appended when any are
    set (``choco[fraction=0.2,gamma=0.6]``).
    """

    name: str
    params: dict[str, Any] = field(default_factory=dict)
    label: str | None = None

    def __post_init__(self) -> None:
        # Validate eagerly so a bad spec fails when it is written, and build a
        # deterministic label independent of params insertion order.
        build_scheme_factory(self.name, self.params)
        if self.label is None:
            rendered = ",".join(f"{k}={self.params[k]}" for k in sorted(self.params))
            label = self.name if not rendered else f"{self.name}[{rendered}]"
            object.__setattr__(self, "label", label)

    def build(self) -> SchemeFactory:
        """The configured factory this spec describes."""

        return build_scheme_factory(self.name, self.params)

    @classmethod
    def coerce(cls, value: "SchemeSpec | str | Mapping[str, Any]") -> "SchemeSpec":
        """Accept a :class:`SchemeSpec`, a bare name or a mapping."""

        if isinstance(value, SchemeSpec):
            return value
        if isinstance(value, str):
            return cls(name=value)
        return cls.from_dict(value)
