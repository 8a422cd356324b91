"""Run telemetry: metrics, structured traces, peak memory, forensics, status.

``repro.observability`` is the measurement substrate of the reproduction —
the paper's headline claims are resource claims (bytes on the wire,
convergence time, scalability), and this package is how a run reports them
live instead of only through the final result object:

* :mod:`~repro.observability.metrics` — a :class:`MetricsRegistry` of
  counters/gauges/histograms, an engine observer folding the run's hooks
  into counts (a run without one pays nothing for it);
* :mod:`~repro.observability.trace` — a JSONL :class:`TraceEmitter` writing
  one record per round/message/evaluation/checkpoint event, wall-clock
  fields segregated under each record's ``"wall"`` key so a
  timestamp-stripped trace is byte-stable across reruns;
* :mod:`~repro.observability.forensics` — the structural trace differ
  (:func:`diff_traces`) that localizes the first divergent event of a
  broken replay, with per-field numeric drift and a causal backtrace of the
  deliveries feeding the divergent round;
* :mod:`~repro.observability.status` — the atomically rewritten
  ``status.json`` heartbeat (:class:`StatusBoard` / per-cell
  :class:`CellStatusWriter`) behind ``--status`` and ``jwins-repro top``;
* :mod:`~repro.observability.memory` — the peak-RSS reading a trace's
  ``run_end`` record carries;
* :mod:`~repro.observability.contract` — the result row's reserved telemetry
  keys and the scrub the result store applies, so telemetry never leaks into
  the determinism contract.

Per-layer wall-clock attribution of a run is the benchmark harness's job
(``benchmarks/perf``), not the library's.  This package is the *only* module
tree sanctioned to read the wall clock (enforced statically by the DET002
analysis rule).
"""

from repro.observability.contract import TELEMETRY_RESULT_FIELDS, scrub_telemetry
from repro.observability.forensics import FieldDrift, TraceDiff, diff_traces
from repro.observability.memory import peak_rss_bytes
from repro.observability.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.observability.status import (
    CellStatusWriter,
    StatusBoard,
    load_status,
    render_status,
    watch_status,
)
from repro.observability.trace import (
    TraceEmitter,
    read_trace,
    strip_wall,
    summarize_trace,
    summarize_trace_dir,
)

__all__ = [
    "CellStatusWriter",
    "Counter",
    "FieldDrift",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "StatusBoard",
    "TELEMETRY_RESULT_FIELDS",
    "TraceDiff",
    "TraceEmitter",
    "diff_traces",
    "load_status",
    "peak_rss_bytes",
    "read_trace",
    "render_status",
    "scrub_telemetry",
    "strip_wall",
    "summarize_trace",
    "summarize_trace_dir",
    "watch_status",
]
