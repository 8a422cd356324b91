"""The run-telemetry metrics registry: counters, gauges and histograms.

A :class:`MetricsRegistry` is an engine observer: attached to a run (through
``metrics=`` or :meth:`~repro.simulation.engine.Simulator.add_observer`), its
``on_*`` hooks fold the run's sends, refusals, deliveries, rounds, evaluations
and snapshots into instruments.  Nothing else in the library records into it.
Three instrument kinds cover every telemetry need the reproduction has:

* :class:`Counter` — monotonically increasing totals (bytes sent, messages
  dropped, snapshots captured);
* :class:`Gauge` — last-written values (rounds completed so far);
* :class:`Histogram` — cheap streaming summaries (count/sum/min/max) of a
  distribution, e.g. per-node round latencies in simulated seconds.

Instruments are identified by a name plus optional labels
(``registry.counter("net_bytes_sent", scheme="jwins")``); the label set is
part of the instrument key, rendered Prometheus-style as
``net_bytes_sent{scheme=jwins}``.

Telemetry stays outside the determinism contract: the hooks only read what
the engine hands them, and a run without a registry pays nothing for it.
Per-worker registries travel back to the sweep parent as
:meth:`MetricsRegistry.to_dict` payloads and are folded in with
:meth:`MetricsRegistry.merge` — counters and histogram mass add, gauges take
the maximum — so the merged registry is identical for any worker count and
any merge order.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from repro.scenarios.schedule import BYZANTINE_MODES

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


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
    """Get-or-create registry of named instruments, fed by the engine's hooks.

    Instruments are created lazily on first access and held forever; the
    registry serializes to a sorted, JSON-safe mapping so snapshots diff
    cleanly and merge deterministically across sweep workers.  Attached to
    one run at a time, it counts (labelled by the run's ``scheme`` where
    noted):

    * ``net_messages_sent``/``net_bytes_sent``/``net_metadata_bytes_sent``
      (scheme) — the copies each send put on the uplink, delivered or not;
    * ``engine_messages_delivered``/``net_bytes_received`` (scheme) — the
      copies that landed;
    * ``engine_messages_dropped``/``engine_messages_suppressed`` — the copies
      the lossy network dropped, and those a partition or an offline receiver
      suppressed;
    * ``engine_byzantine_sends{mode=...}`` — the sends made under an attack;
    * ``engine_rounds_completed`` (gauge), ``engine_round_latency_seconds``
      (per-node round latency in simulated seconds, the barrier's under
      lock-step), ``engine_evaluations``, ``engine_snapshots_captured`` and
      ``checkpoint_loads`` (runs started from a snapshot).
    """

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

    # -- the engine's observer hooks -----------------------------------------------
    def on_run_start(self, simulator: Any) -> None:
        """Resolve the run's instruments; a resume's latencies start at its clocks."""

        scheme = simulator.result.scheme
        self._result = simulator.result
        self._sent = self.counter("net_messages_sent", scheme=scheme)
        self._bytes_sent = self.counter("net_bytes_sent", scheme=scheme)
        self._metadata_sent = self.counter("net_metadata_bytes_sent", scheme=scheme)
        self._delivered = self.counter("engine_messages_delivered", scheme=scheme)
        self._received = self.counter("net_bytes_received", scheme=scheme)
        self._attacks = {
            mode: self.counter("engine_byzantine_sends", mode=mode) for mode in BYZANTINE_MODES
        }
        self._refused = {
            reason: self.counter(f"engine_messages_{reason}") for reason in ("dropped", "suppressed")
        }
        self._rounds = self.gauge("engine_rounds_completed")
        self._latency = self.histogram("engine_round_latency_seconds")
        self._evaluations = self.counter("engine_evaluations")
        #: Round-latency marks: node -> simulated time its current round began
        #: (key -1 for the lock-step barrier).
        self._marks: dict[int, float] = {}
        resume = simulator.resume_state
        if resume is not None:
            self.counter("checkpoint_loads").inc()
            state = resume.mode_state
            if state["kind"] == "sync":
                self._marks[-1] = float(state["clock"])
            else:
                self._marks.update(enumerate(map(float, state["node_clock"])))

    def on_send(self, message: Any, copies: int, attack: str | None) -> None:
        self._sent.inc(copies)
        self._bytes_sent.inc(message.size.total_bytes * copies)
        self._metadata_sent.inc(message.size.metadata_bytes * copies)
        if attack is not None:
            self._attacks[attack].inc()

    def on_refuse(self, message: Any, receiver: int, now: float, reason: str) -> None:
        self._refused[reason].inc()

    def on_message(self, message: Any, receiver: int, now: float) -> None:
        self._delivered.inc()
        self._received.inc(message.size.total_bytes)

    def on_round_end(self, round_index: int, node_id: int | None, now: float) -> None:
        self._rounds.set(float(self._result.rounds_completed))
        key = -1 if node_id is None else node_id
        self._latency.observe(now - self._marks.get(key, 0.0))
        self._marks[key] = now

    def on_evaluate(self, record: Any) -> None:
        self._evaluations.inc()

    def on_checkpoint(self, rounds_completed: int, reason: str) -> None:
        self.counter("engine_snapshots_captured").inc()
