"""Declarative experiment grids.

A :class:`Sweep` names a grid ``{workload} x {scheme} x {config axes}`` plus a
set of base overrides shared by every cell.  :meth:`Sweep.cells` expands the
grid deterministically (workloads, then schemes, then axes in declaration
order) into :class:`SweepCell`\\ s; :meth:`Sweep.expand` is the spec-only view
the executor consumes.

Irregular grids fall out of the same model: a ragged comparison (e.g.
Figure 6's per-budget gamma tuning) is a sweep with one scheme spec per cell
and no axes, while a regular product (Table I, Figure 7's static-vs-dynamic
axis) declares axes and lets the expansion do the work.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.exceptions import ConfigurationError
from repro.orchestration.schemes import SchemeSpec
from repro.orchestration.spec import ExperimentSpec

__all__ = ["Sweep", "SweepCell"]


@dataclass(frozen=True)
class SweepCell:
    """One expanded grid cell: the spec plus the coordinates that produced it."""

    spec: ExperimentSpec
    workload: str
    scheme: SchemeSpec
    axes: dict[str, Any] = field(default_factory=dict)

    @property
    def label(self) -> str:
        """Unique-within-sweep cell name: workload/scheme plus axis values."""

        parts = [self.workload, self.scheme.label]
        parts.extend(
            f"{name}={_axis_value_label(value)}" for name, value in self.axes.items()
        )
        return "/".join(parts)


def _axis_value_label(value: Any) -> str:
    """Compact display form of one axis value.

    Structured values (e.g. a scenario schedule in its ``to_dict`` form) are
    summarized by their ``name`` field so sweep labels stay readable.
    """

    if isinstance(value, Mapping):
        return str(value.get("name", "custom"))
    return str(value)


@dataclass(frozen=True)
class Sweep:
    """A named grid of experiments.

    Attributes
    ----------
    name:
        Sweep identifier used in logs and summaries.
    workloads:
        Workload names (one grid dimension).
    schemes:
        Scheme references (second dimension); bare strings are accepted and
        coerced to :class:`SchemeSpec`.
    axes:
        Named config axes: :class:`~repro.simulation.ExperimentConfig` field
        name -> list of values.  The expansion takes the cartesian product in
        declaration order.  A ``seed`` axis is the idiomatic way to run
        repetitions.
    base_overrides:
        Config overrides shared by every cell (axis values win on conflict).
    task_seed:
        Optional fixed dataset seed for every cell (see
        :class:`~repro.orchestration.spec.ExperimentSpec`).
    """

    name: str
    workloads: tuple[str, ...]
    schemes: tuple[SchemeSpec, ...]
    axes: dict[str, tuple[Any, ...]] = field(default_factory=dict)
    base_overrides: dict[str, Any] = field(default_factory=dict)
    task_seed: int | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a sweep needs a non-empty name")
        workloads = tuple(self.workloads)
        schemes = tuple(SchemeSpec.coerce(scheme) for scheme in self.schemes)
        if not workloads or not schemes:
            raise ConfigurationError(
                "a sweep needs at least one workload and one scheme"
            )
        labels = [scheme.label for scheme in schemes]
        if len(set(labels)) != len(labels):
            raise ConfigurationError(
                "scheme labels must be unique within a sweep; "
                "set SchemeSpec.label to disambiguate repeated schemes"
            )
        axes = {name: tuple(values) for name, values in dict(self.axes).items()}
        for axis, values in axes.items():
            if not values:
                raise ConfigurationError(f"axis {axis!r} has no values")
        object.__setattr__(self, "workloads", workloads)
        object.__setattr__(self, "schemes", schemes)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "base_overrides", dict(self.base_overrides))

    # -- expansion -----------------------------------------------------------------
    def cells(self) -> list[SweepCell]:
        """Expand the grid into cells, in deterministic declaration order."""

        axis_names = list(self.axes)
        axis_products: Iterable[tuple[Any, ...]] = itertools.product(
            *(self.axes[name] for name in axis_names)
        )
        cells: list[SweepCell] = []
        for axis_values in axis_products:
            point = dict(zip(axis_names, axis_values))
            for workload in self.workloads:
                for scheme in self.schemes:
                    overrides = {**self.base_overrides, **point}
                    spec = ExperimentSpec(
                        workload=workload,
                        scheme=scheme,
                        overrides=overrides,
                        task_seed=self.task_seed,
                    )
                    cells.append(SweepCell(spec, workload, scheme, point))
        return cells

    def expand(self) -> list[ExperimentSpec]:
        """The specs of :meth:`cells`, in the same order."""

        return [cell.spec for cell in self.cells()]

    def __len__(self) -> int:
        size = len(self.workloads) * len(self.schemes)
        for values in self.axes.values():
            size *= len(values)
        return size
