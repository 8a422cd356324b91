"""Outside-in layer tracing: spans around the program's public callables.

Nothing under ``src/`` knows about this module.  For the duration of one
traced run, :func:`install` replaces the public callables listed in
:data:`BOUNDARIES` (class attributes, plus every ``repro.*`` module binding of a
function that callers import by name) with wrappers that record one span per
call into a :class:`Tracer`, and :meth:`Installed.restore` puts every original
object back.  Spans live in memory as
``(id, parent, name, round, start_ns, end_ns)`` and are written out once, after
the run.

A span's *self time* is its duration minus the durations of its direct
children, so the self times of a span tree sum to the root's duration exactly:
that is how the per-layer table sums to the run.  Time the engine spends in
its own loop (delivery, metering, bookkeeping) cannot be wrapped from outside
and surfaces as the self time of the ``simulation.loop`` span.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

__all__ = ["BOUNDARIES", "FAMILIES", "Installed", "Span", "Tracer", "install", "layer_metrics", "unit_of"]

#: ``(id, parent, name, round, start_ns, end_ns)``; ``parent`` is ``-1`` for roots.
Span = tuple[int, int, str, int, int, int]


class Tracer:
    """In-memory span recorder for one single-threaded traced run."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        #: Round id stamped on spans as they start; advanced by :meth:`next_round`.
        self.round = 0
        #: Work counters recorded at the same boundaries as the spans.
        self.counters: dict[str, float] = defaultdict(float)

    # -- recording -----------------------------------------------------------------
    def next_round(self) -> None:
        """Close the current round: later spans carry the next round id."""

        self.round += 1

    def _begin(self, name: str) -> tuple[int, int, str, int, int]:
        index = len(self.spans)
        self.spans.append(None)  # reserve the id so children can point at it
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent, name, self.round, self.clock()

    def _end(self, opened: tuple[int, int, str, int, int]) -> None:
        end = self.clock()
        self._stack.pop()
        self.spans[opened[0]] = (*opened, end)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one explicit span around a block of benchmark code."""

        opened = self._begin(name)
        try:
            yield
        finally:
            self._end(opened)

    def wrap(
        self,
        function: Callable[..., Any],
        name: str,
        count: Callable[["Tracer", Any, tuple[Any, ...]], None] | None = None,
    ) -> Callable[..., Any]:
        """A wrapper recording one ``name`` span per call of ``function``.

        ``count(tracer, result, args)`` runs after the span closed, so the
        counters are measured where the work happens without being billed to it.
        """

        begin, end = self._begin, self._end

        def traced(*args: Any, **kwargs: Any) -> Any:
            opened = begin(name)
            try:
                result = function(*args, **kwargs)
            finally:
                end(opened)
            if count is not None:
                count(self, result, args)
            return result

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    # -- reading -------------------------------------------------------------------
    def finished(self) -> list[Span]:
        """Every recorded span; raises if one is still open."""

        if self._stack:  # every closed span has filled its reserved slot
            raise RuntimeError("a span is still open; the traced run did not unwind")
        return self.spans  # type: ignore[return-value]

    def self_times(self) -> list[int]:
        """Self time (ns) of every span, indexed by span id."""

        spans = self.finished()
        own = [end - start for _, _, _, _, start, end in spans]
        for _, parent, _, _, start, end in spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def subtree(self, root: int) -> list[int]:
        """Ids of ``root`` and all its descendants (ids grow with start time)."""

        members = {root}
        for index, parent, *_ in self.finished():
            if parent in members:
                members.add(index)
        return sorted(members)

    def by_name(self, ids: Iterable[int] | None = None) -> dict[str, dict[str, float]]:
        """Per span name: call count, total self seconds and total seconds."""

        spans = self.finished()
        own = self.self_times()
        table: dict[str, dict[str, float]] = {}
        for index in range(len(spans)) if ids is None else ids:
            _, _, name, _, start, end = spans[index]
            row = table.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["self_s"] += own[index] / 1e9
            row["total_s"] += (end - start) / 1e9
        return table

    def roots(self, name: str) -> list[int]:
        """Ids of the parentless spans called ``name``."""

        return [
            index
            for index, parent, span_name, *_ in self.finished()
            if parent < 0 and span_name == name
        ]

    def write_jsonl(self, path: str | Path) -> Path:
        """Write the trace: one span per line, plus a trailing counters line."""

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        own = self.self_times()
        with path.open("w", encoding="utf-8") as handle:
            for index, parent, name, round_id, start, end in self.finished():
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "parent": parent,
                            "name": name,
                            "round": round_id,
                            "start_ns": start,
                            "end_ns": end,
                            "self_ns": own[index],
                        }
                    )
                    + "\n"
                )
            handle.write(json.dumps({"counters": dict(self.counters)}) + "\n")
        return path


# -- counters recorded beside the spans ----------------------------------------------
def _count_coefficients(tracer: Tracer, result: Any, args: tuple[Any, ...]) -> None:
    tracer.counters["wavelets.coeffs"] += result.size


def _count_index_bytes(tracer: Tracer, result: Any, args: tuple[Any, ...]) -> None:
    tracer.counters["compression.wire_bytes"] += result.size_bytes


def _count_float_bytes(tracer: Tracer, result: Any, args: tuple[Any, ...]) -> None:
    tracer.counters["compression.wire_bytes"] += result.size_bytes
    tracer.counters["compression.values"] += len(args[1])  # args = (codec, values)


def _count_snapshot_bytes(tracer: Tracer, result: Any, args: tuple[Any, ...]) -> None:
    tracer.counters["checkpoint.snapshot_bytes"] += Path(result).stat().st_size


#: Span name -> the public callables it wraps, as ``module:attribute`` or
#: ``module:Class.attribute``.  One span name per layer boundary; the names are
#: the rows of the per-layer table in README.md.
BOUNDARIES: dict[str, tuple[str, ...]] = {
    "datasets.batch": (
        "repro.simulation.node:SimulationNode.sample_batch",
        "repro.datasets.base:Dataset.batch",
    ),
    "nn.optim_step": (
        "repro.nn.optim:SGD.step",
        "repro.simulation.arena:NodeArenas.step_rows",
    ),
    "wavelets.forward": (
        "repro.wavelets.transform:WaveletTransform.forward",
        "repro.wavelets.transform:WaveletTransform.forward_batch",
    ),
    "wavelets.inverse": (
        "repro.wavelets.transform:WaveletTransform.inverse",
        "repro.wavelets.transform:WaveletTransform.inverse_batch",
    ),
    "sparsification.topk": ("repro.sparsification.topk:topk_indices",),
    "compression.index_encode": ("repro.compression.indices:EliasGammaIndexCodec.encode",),
    "compression.float_compress": ("repro.compression.float_codec:FloatCodec.compress",),
    "core.ranking": (
        "repro.core.ranking:WaveletRanker.round_scores_from_change",
        "repro.core.ranking:WaveletRanker.mark_shared",
        "repro.core.ranking:WaveletRanker.end_of_round",
        "repro.core.ranking:WaveletRanker.end_of_round_from_change",
    ),
    "core.prepare": ("repro.core.jwins:JwinsScheme.prepare_from_coefficients",),
    "core.aggregate": ("repro.core.jwins:JwinsScheme.aggregate_coefficients",),
    "core.average": ("repro.core.aggregation:partial_weighted_average",),
    "topology.rewire": ("repro.simulation.engine:Simulator.apply_topology_policy",),
    "scenarios.state_at": ("repro.simulation.engine:Simulator.scenario_state",),
    "simulation.build": (
        "repro.simulation.engine:build_nodes",
        "repro.simulation.arena:build_arena_nodes",
    ),
    "simulation.local_training": ("repro.simulation.node:SimulationNode.local_training",),
    "simulation.evaluate": (
        "repro.simulation.node:SimulationNode.evaluate",
        "repro.simulation.engine:Simulator.record_evaluation",
    ),
    "simulation.make_context": ("repro.simulation.engine:Simulator.make_context",),
    "simulation.loop": ("repro.simulation.engine:Simulator.run",),
    "checkpoint.capture": ("repro.checkpoint.snapshot:capture_snapshot",),
    "checkpoint.save": (
        "repro.checkpoint.manager:CheckpointManager.save",
        "repro.checkpoint.snapshot:SimulationSnapshot.save",
    ),
    "checkpoint.load": (
        "repro.checkpoint.manager:CheckpointManager.load",
        "repro.checkpoint.snapshot:SimulationSnapshot.load",
    ),
    "checkpoint.restore": ("repro.checkpoint.snapshot:restore_simulator",),
    "orchestration.spec_build": ("repro.orchestration.spec:ExperimentSpec.build",),
    "orchestration.store_put": ("repro.orchestration.store:ResultStore.put",),
    "orchestration.store_open": ("repro.orchestration.store:ResultStore.__init__",),
}

#: Boundaries that are one method of every class in a family:
#: ``(span name, base class, method, module the subclasses must be defined in)``.
#: ``repro.nn.models`` holds exactly the root models nodes own as ``node.model``;
#: wrapping their layers too would bill the tracer's cost to the kernels.
FAMILIES: tuple[tuple[str, str, str, str | None], ...] = (
    ("nn.forward", "repro.nn.module:Module", "forward", "repro.nn.models"),
    ("nn.backward", "repro.nn.module:Module", "backward", "repro.nn.models"),
    ("nn.loss", "repro.nn.losses:Loss", "forward", None),
    ("nn.loss", "repro.nn.losses:Loss", "backward", None),
    ("core.prepare", "repro.core.interface:SharingScheme", "prepare", None),
    ("core.aggregate", "repro.core.interface:SharingScheme", "aggregate", None),
)

#: Work counters taken at a boundary, keyed like :data:`BOUNDARIES` entries.
COUNTERS = {
    "repro.wavelets.transform:WaveletTransform.forward": _count_coefficients,
    "repro.wavelets.transform:WaveletTransform.forward_batch": _count_coefficients,
    "repro.compression.indices:EliasGammaIndexCodec.encode": _count_index_bytes,
    "repro.compression.float_codec:FloatCodec.compress": _count_float_bytes,
    "repro.checkpoint.snapshot:SimulationSnapshot.save": _count_snapshot_bytes,
}


class Installed:
    """The set of attributes :func:`install` replaced, and how to undo it."""

    def __init__(self) -> None:
        #: ``(owner object, attribute name, original raw attribute)`` in patch order.
        self.patched: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attribute: str, replacement: Any) -> None:
        self.patched.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    def restore(self) -> None:
        """Put every original attribute back (identity-exact), newest first."""

        while self.patched:
            owner, attribute, original = self.patched.pop()
            setattr(owner, attribute, original)


def _resolve(path: str) -> tuple[Any, str]:
    """``module:Class.attr`` -> ``(Class, "attr")``; ``module:attr`` -> ``(module, "attr")``."""

    module_name, _, dotted = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attribute = dotted.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


def _subclasses(base: type) -> list[type]:
    found: list[type] = []
    for subclass in base.__subclasses__():
        found.append(subclass)
        found.extend(_subclasses(subclass))
    return found


def _wrap_raw(tracer: Tracer, raw: Any, name: str, count: Any) -> Any:
    """Wrap a raw namespace entry, keeping classmethod/staticmethod binding."""

    if isinstance(raw, (classmethod, staticmethod)):
        return type(raw)(tracer.wrap(raw.__func__, name, count))
    return tracer.wrap(raw, name, count)


def install(tracer: Tracer) -> Installed:
    """Wrap every callable in :data:`BOUNDARIES` and :data:`FAMILIES`.

    Returns the handle that undoes it.  A module-level function is replaced in
    *every* loaded ``repro`` module that binds the same function object,
    because callers that did ``from x import f`` hold their own reference
    (``repro.core.jwins`` binds ``topk_indices`` and
    ``partial_weighted_average`` this way).
    """

    installed = Installed()
    try:
        for span_name, paths in BOUNDARIES.items():
            for path in paths:
                owner, attribute = _resolve(path)
                raw = vars(owner)[attribute]
                wrapped = _wrap_raw(tracer, raw, span_name, COUNTERS.get(path))
                if isinstance(owner, type):
                    installed.replace(owner, attribute, wrapped)
                    continue
                for name, module in list(sys.modules.items()):
                    if (
                        module is not None
                        and (name == "repro" or name.startswith("repro."))
                        and vars(module).get(attribute) is raw
                    ):
                        installed.replace(module, attribute, wrapped)
        for span_name, base_path, method, defined_in in FAMILIES:
            base = getattr(*_resolve(base_path))
            for owner in _subclasses(base):
                raw = vars(owner).get(method)
                if raw is None or (defined_in and owner.__module__ != defined_in):
                    continue
                installed.replace(
                    owner, method, _wrap_raw(tracer, raw, span_name, None)
                )
    except BaseException:
        installed.restore()
        raise
    return installed


# -- span table -> per-layer metrics --------------------------------------------------
#: Span name -> (``_s`` metric fed by its self time, ``_calls`` metric or None).
SPAN_METRICS: dict[str, tuple[str, str | None]] = {
    "datasets.batch": ("datasets.batch_s", "datasets.batch_calls"),
    "nn.forward": ("nn.forward_s", "nn.forward_calls"),
    "nn.backward": ("nn.backward_s", None),
    "nn.loss": ("nn.loss_s", None),
    "nn.optim_step": ("nn.optim_step_s", "nn.optim_step_calls"),
    "wavelets.forward": ("wavelets.forward_s", "wavelets.forward_calls"),
    "wavelets.inverse": ("wavelets.inverse_s", "wavelets.inverse_calls"),
    "sparsification.topk": ("sparsification.topk_s", "sparsification.topk_calls"),
    "compression.index_encode": ("compression.index_encode_s", "compression.encode_calls"),
    "compression.float_compress": ("compression.float_compress_s", None),
    "core.ranking": ("core.ranking_s", None),
    "core.prepare": ("core.prepare_self_s", None),
    "core.average": ("core.average_s", None),
    "core.aggregate": ("core.aggregate_self_s", None),
    "topology.rewire": ("topology.rewire_s", "topology.rewire_calls"),
    "scenarios.state_at": ("scenarios.state_at_s", "scenarios.state_at_calls"),
    "simulation.build": ("simulation.build_s", None),
    "simulation.local_training": ("simulation.local_training_self_s", None),
    "simulation.make_context": ("simulation.make_context_s", None),
    "simulation.evaluate": ("simulation.evaluate_s", None),
    "simulation.loop": ("simulation.loop_self_s", None),
    "checkpoint.capture": ("checkpoint.capture_s", None),
    "checkpoint.save": ("checkpoint.save_s", None),
    "checkpoint.load": ("checkpoint.load_s", None),
    "checkpoint.restore": ("checkpoint.restore_s", None),
    "orchestration.spec_build": ("orchestration.spec_build_s", None),
    "orchestration.store_put": ("orchestration.store_put_s", None),
    "orchestration.store_open": ("orchestration.store_open_s", None),
    "orchestration.reread": ("orchestration.reread_s", None),
    "orchestration.sweep": ("orchestration.sweep_self_s", None),
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer ``_s``/``_calls``/counter metrics of one traced run.

    Every metric in :data:`SPAN_METRICS` is present (zero when its span never
    fired on this workload), so all workloads report the same names.
    """

    table = tracer.by_name()
    spans = tracer.finished()
    metrics: dict[str, float] = {}
    for span_name, (seconds_metric, calls_metric) in SPAN_METRICS.items():
        row = table.get(span_name, {"calls": 0, "self_s": 0.0})
        metrics[seconds_metric] = row["self_s"]
        if calls_metric is not None:
            metrics[calls_metric] = float(row["calls"])
    # Nested wrappers of one boundary (``prepare`` -> ``prepare_from_coefficients``,
    # ``CheckpointManager.save`` -> ``SimulationSnapshot.save``) are one call.
    for span_name, metric in (
        ("core.prepare", "core.prepare_calls"),
        ("checkpoint.save", "checkpoint.saves"),
    ):
        metrics[metric] = float(
            sum(
                1
                for _, parent, name, *_ in spans
                if name == span_name and (parent < 0 or spans[parent][2] != span_name)
            )
        )
    metrics["wavelets.coeffs"] = tracer.counters["wavelets.coeffs"]
    metrics["compression.wire_bytes"] = tracer.counters["compression.wire_bytes"]
    values = tracer.counters["compression.values"]
    metrics["compression.bytes_per_value"] = (
        tracer.counters["compression.wire_bytes"] / values if values else 0.0
    )
    metrics["checkpoint.snapshot_bytes"] = tracer.counters["checkpoint.snapshot_bytes"]
    return metrics


def unit_of(metric: str) -> str:
    """The unit a per-layer metric is reported in, from its name's suffix."""

    if metric.endswith("_ms_mean"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_share"):
        return "share"
    if metric.endswith("bytes") or metric.endswith("bytes_per_value"):
        return "B"
    if metric.endswith("_speedup"):
        return "x"
    if metric.endswith("_accuracy"):
        return "fraction"
    return "count"
