"""The run-telemetry metrics registry: counters, gauges and histograms.

A :class:`MetricsRegistry` is the mutable side of the observability layer:
the engine, the byte meter, the checkpoint manager and the sweep executor all
increment instruments on one registry while a run unfolds.  Three instrument
kinds cover every telemetry need the reproduction has:

* :class:`Counter` — monotonically increasing totals (bytes sent, messages
  dropped, events processed, checkpoint saves);
* :class:`Gauge` — last-written values (rounds completed so far);
* :class:`Histogram` — cheap streaming summaries (count/sum/min/max) of a
  distribution, e.g. per-node round latencies in simulated seconds.

Instruments are identified by a name plus optional labels
(``registry.counter("engine_bytes_sent", scheme="jwins")``); the label set is
part of the instrument key, rendered Prometheus-style as
``engine_bytes_sent{scheme=jwins}``.

Two properties keep telemetry outside the determinism contract:

* **Null stubs.**  :data:`NULL_METRICS` is a registry whose instruments are
  shared no-op singletons.  Code paths instrument unconditionally against it
  when telemetry is off, so the hot loops carry no ``if metrics:`` branches
  and the disabled cost is one trivially inlineable method call.
* **Deterministic merge.**  Per-worker registries travel back to the sweep
  parent as :meth:`MetricsRegistry.to_dict` payloads and are folded in with
  :meth:`MetricsRegistry.merge` — counters and histogram mass add, gauges
  take the maximum — so the merged registry is identical for any worker
  count and any merge order.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "NullMetricsRegistry",
]


def _instrument_key(name: str, labels: Mapping[str, Any]) -> str:
    """The canonical registry key of ``name`` with ``labels`` (sorted)."""

    if not labels:
        return name
    rendered = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{rendered}}}"


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self, value: float = 0.0) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (default 1) to the counter."""

        self.value += amount

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe representation; exact inverse of :meth:`from_dict`."""

        return {"kind": self.kind, "value": float(self.value)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Counter":
        """Rebuild a counter from :meth:`to_dict` output."""

        return cls(float(data["value"]))

    def merge(self, other: "Counter") -> None:
        """Fold another counter in: totals add."""

        self.value += other.value


class Gauge:
    """A last-written value (merge takes the maximum across workers)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self, value: float = 0.0) -> None:
        self.value = value

    def set(self, value: float) -> None:
        """Overwrite the gauge with ``value``."""

        self.value = value

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe representation; exact inverse of :meth:`from_dict`."""

        return {"kind": self.kind, "value": float(self.value)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Gauge":
        """Rebuild a gauge from :meth:`to_dict` output."""

        return cls(float(data["value"]))

    def merge(self, other: "Gauge") -> None:
        """Fold another gauge in: the maximum wins (order-independent)."""

        self.value = max(self.value, other.value)


class Histogram:
    """A streaming count/sum/min/max summary of observed values."""

    __slots__ = ("count", "total", "minimum", "maximum")
    kind = "histogram"

    def __init__(
        self,
        count: int = 0,
        total: float = 0.0,
        minimum: float = float("inf"),
        maximum: float = float("-inf"),
    ) -> None:
        self.count = count
        self.total = total
        self.minimum = minimum
        self.maximum = maximum

    def observe(self, value: float) -> None:
        """Record one sample."""

        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        """Average of the observed samples (0.0 before the first sample)."""

        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe representation; exact inverse of :meth:`from_dict`.

        An empty histogram serializes its sentinel min/max as ``None`` so the
        payload stays valid JSON.
        """

        return {
            "kind": self.kind,
            "count": int(self.count),
            "total": float(self.total),
            "min": None if self.count == 0 else float(self.minimum),
            "max": None if self.count == 0 else float(self.maximum),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Histogram":
        """Rebuild a histogram from :meth:`to_dict` output."""

        count = int(data["count"])
        return cls(
            count=count,
            total=float(data["total"]),
            minimum=float("inf") if count == 0 else float(data["min"]),
            maximum=float("-inf") if count == 0 else float(data["max"]),
        )

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram in: mass adds, extrema combine."""

        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)


_KINDS = {cls.kind: cls for cls in (Counter, Gauge, Histogram)}


class MetricsRegistry:
    """Get-or-create registry of named instruments.

    Instruments are created lazily on first access and held forever; the
    registry serializes to a sorted, JSON-safe mapping so snapshots diff
    cleanly and merge deterministically across sweep workers.
    """

    #: Distinguishes a live registry from :class:`NullMetricsRegistry`.
    enabled = True

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, factory: type, name: str, labels: Mapping[str, Any]):
        key = _instrument_key(name, labels)
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = factory()
            self._instruments[key] = instrument
        elif not isinstance(instrument, factory):
            raise ValueError(
                f"metric {key!r} is already registered as a "
                f"{type(instrument).kind}, not a {factory.kind}"
            )
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter named ``name`` with ``labels`` (created on first use)."""

        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge named ``name`` with ``labels`` (created on first use)."""

        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        """The histogram named ``name`` with ``labels`` (created on first use)."""

        return self._get(Histogram, name, labels)

    def items(self) -> Iterator[tuple[str, Counter | Gauge | Histogram]]:
        """``(key, instrument)`` pairs in sorted key order."""

        for key in sorted(self._instruments):
            yield key, self._instruments[key]

    # -- (de)serialization ---------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-safe snapshot, sorted by instrument key; inverse of :meth:`from_dict`."""

        return {key: instrument.to_dict() for key, instrument in self.items()}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_dict` output."""

        registry = cls()
        for key, payload in data.items():
            registry._instruments[key] = _KINDS[payload["kind"]].from_dict(payload)
        return registry

    # -- merging -------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry | Mapping[str, Any]") -> "MetricsRegistry":
        """Fold another registry (or its :meth:`to_dict` payload) into this one.

        Counters and histogram mass add, gauges take the maximum — all
        order-independent operations, so merging per-worker registries yields
        the identical parent registry for any worker count.  Returns ``self``.
        """

        if not isinstance(other, MetricsRegistry):
            other = MetricsRegistry.from_dict(other)
        for key, instrument in other._instruments.items():
            mine = self._instruments.get(key)
            if mine is None:
                self._instruments[key] = _KINDS[instrument.kind].from_dict(
                    instrument.to_dict()
                )
            elif mine.kind != instrument.kind:
                raise ValueError(
                    f"cannot merge metric {key!r}: {mine.kind} vs {instrument.kind}"
                )
            else:
                mine.merge(instrument)
        return self

    # -- rendering -----------------------------------------------------------------
    def render(self) -> str:
        """The metrics table the CLI's ``--metrics`` flag prints."""

        if not self._instruments:
            return "no metrics recorded"
        width = max(len(key) for key in self._instruments)
        lines = [f"{'metric':<{width}}  value"]
        lines.append("-" * len(lines[0]))
        for key, instrument in self.items():
            if isinstance(instrument, Histogram):
                if instrument.count == 0:
                    rendered = "count=0"
                else:
                    rendered = (
                        f"count={instrument.count} mean={instrument.mean:.6g} "
                        f"min={instrument.minimum:.6g} max={instrument.maximum:.6g}"
                    )
            else:
                value = instrument.value
                rendered = f"{value:.6g}" if value != int(value) else str(int(value))
            lines.append(f"{key:<{width}}  {rendered}")
        return "\n".join(lines)


class _NullInstrument:
    """Shared no-op stand-in for every instrument kind."""

    __slots__ = ()
    value = 0.0
    count = 0
    total = 0.0
    minimum = float("inf")
    maximum = float("-inf")
    mean = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry(MetricsRegistry):
    """The disabled registry: every instrument is one shared no-op object.

    Instrumented code paths hold references obtained from this registry when
    telemetry is off, so recording costs a single no-op method call and the
    registry never accumulates state (``to_dict`` stays empty).
    """

    enabled = False

    def counter(self, name: str, **labels: Any) -> Counter:  # type: ignore[override]
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def gauge(self, name: str, **labels: Any) -> Gauge:  # type: ignore[override]
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def histogram(self, name: str, **labels: Any) -> Histogram:  # type: ignore[override]
        return _NULL_INSTRUMENT  # type: ignore[return-value]


#: Process-wide disabled registry; instrument against this when telemetry is off.
NULL_METRICS = NullMetricsRegistry()
