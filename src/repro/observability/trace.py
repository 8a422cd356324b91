"""Structured JSONL run traces with a determinism-preserving wall split.

A :class:`TraceEmitter` is an engine observer (attach it with
``Simulator.add_observer`` or pass it in ``observers=``).  A trace file holds
exactly one run, one JSON object per line: a ``manifest`` header (spec hash,
seed, library versions), then one record per round / delivered message /
evaluation / checkpoint event and a closing ``run_end`` record.  Every record
has the shape::

    {"kind": "round", "seq": 7, "round": 3, "now": 41.25, ...,
     "wall": {"unix_time": 1719244801.22}}

The contract that keeps tracing outside the determinism guarantees is the
**wall split**: every non-deterministic field (wall-clock timestamps,
peak RSS, file paths) lives under the record's ``"wall"`` key, and
every field outside it is a pure function of the experiment seed.  Stripping
the ``"wall"`` key from each line (:func:`strip_wall`) therefore yields a
byte-stable document across reruns — pinned by tests and usable as a fifth
determinism oracle: diff two stripped traces to localize the first divergent
event of a broken replay.

:func:`summarize_trace` renders the per-node rollups behind the
``jwins-repro trace summarize`` subcommand.
"""

from __future__ import annotations

import hashlib
import json
import platform
import time
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, TextIO

import numpy as np

from repro.observability.memory import peak_rss_bytes

__all__ = [
    "TraceEmitter",
    "read_trace",
    "strip_wall",
    "summarize_trace",
    "summarize_trace_dir",
]

#: Record key every non-deterministic field must live under.
WALL_KEY = "wall"


def _run_manifest(simulator: Any) -> dict[str, Any]:
    """The identity header the trace's ``manifest`` record carries.

    Everything here is stable for a given machine and spec — the seed, sizes,
    execution mode, library versions and (when the run came from an
    orchestration cell) the spec content hash — so stripped traces stay
    byte-identical across reruns.
    """

    config = simulator.config
    manifest: dict[str, Any] = {
        "scheme": simulator.result.scheme,
        "task": simulator.result.task,
        "num_nodes": int(config.num_nodes),
        "rounds": int(config.rounds),
        "seed": int(config.seed),
        "execution": simulator.mode.name,
        "versions": {"python": platform.python_version(), "numpy": np.__version__},
    }
    if simulator.spec_payload is not None:
        canonical = json.dumps(simulator.spec_payload, sort_keys=True, separators=(",", ":"))
        manifest["spec_hash"] = hashlib.sha256(canonical.encode()).hexdigest()
    return manifest


class TraceEmitter:
    """Append-structured-records-to-JSONL emitter with sequence numbering.

    Its ``on_*`` methods are the engine's observer hooks (see
    :class:`~repro.simulation.engine.SimulationObserver`); one emitter traces
    one run into one file, and an emit after :meth:`close` raises.

    Parameters
    ----------
    path:
        Trace file to (over)write.  Parent directories are created.
    wall_clock:
        Source of the per-record ``wall.unix_time`` stamp; injectable for
        byte-stable tests.  Defaults to :func:`time.time`.
    """

    def __init__(
        self, path: str | Path, wall_clock: Callable[[], float] = time.time
    ) -> None:
        self.path = Path(path)
        self._wall_clock = wall_clock
        self._handle: TextIO | None = None
        self._seq = 0
        self._closed = False

    def _ensure_open(self) -> TextIO:
        if self._closed:
            raise ValueError(f"trace {str(self.path)!r} is closed: a trace file holds one run")
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("w", encoding="utf-8")
        return self._handle

    def emit(
        self,
        kind: str,
        fields: Mapping[str, Any] | None = None,
        wall: Mapping[str, Any] | None = None,
    ) -> None:
        """Write one record of ``kind``.

        ``fields`` must be deterministic (a pure function of the experiment
        seed); anything wall-clock-dependent goes in ``wall``, which is
        emitted under the record's :data:`WALL_KEY` alongside the automatic
        ``unix_time`` stamp.
        """

        record: dict[str, Any] = {"kind": kind, "seq": self._seq}
        if fields:
            record.update(fields)
        stamped = dict(wall) if wall else {}
        stamped["unix_time"] = self._wall_clock()
        record[WALL_KEY] = stamped
        handle = self._ensure_open()
        handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._seq += 1

    # -- the engine's observer hooks -----------------------------------------------
    def on_run_start(self, simulator: Any) -> None:
        self.emit("manifest", _run_manifest(simulator))

    def on_round_end(self, round_index: int, node_id: int | None, now: float) -> None:
        self.emit("round", {"round": round_index, "node": node_id, "now": now})

    def on_message(self, message: Any, receiver: int, now: float) -> None:
        sender, size = message.sender, float(message.size.total_bytes)
        self.emit("message", {"sender": sender, "receiver": receiver, "bytes": size, "now": now})

    def on_evaluate(self, record: Any) -> None:
        self.emit(
            "evaluate",
            {
                "round": record.round_index,
                "accuracy": record.test_accuracy,
                "loss": record.test_loss,
                "bytes_per_node": record.cumulative_bytes_per_node,
                "now": record.simulated_time_seconds,
            },
        )

    def on_checkpoint(self, rounds_completed: int, reason: str) -> None:
        self.emit("checkpoint", {"rounds_completed": rounds_completed, "reason": reason})

    def on_run_end(self, result: Any) -> None:
        fields = {
            "rounds_completed": result.rounds_completed,
            "total_bytes": float(result.total_bytes),
            "simulated_time_seconds": float(result.simulated_time_seconds),
        }
        self.emit("run_end", fields, wall={"peak_rss_bytes": peak_rss_bytes()})
        self.flush()

    def flush(self) -> None:
        """Flush buffered records to disk (the file stays open)."""

        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        """Flush and close the underlying file; a further emit raises."""

        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._closed = True

    def __enter__(self) -> "TraceEmitter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_trace(path: str | Path) -> list[dict[str, Any]]:
    """Parse a trace file into its records (blank lines skipped)."""

    records = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def strip_wall(path_or_records: str | Path | list[dict[str, Any]]) -> str:
    """The trace with every record's wall section removed, re-serialized.

    The result is byte-stable across reruns of the same experiment (pinned by
    tests): two stripped traces can be compared with ``==`` or diffed line by
    line to find the first divergent event.
    """

    if isinstance(path_or_records, (str, Path)):
        records = read_trace(path_or_records)
    else:
        records = path_or_records
    lines = []
    for record in records:
        stripped = {key: value for key, value in record.items() if key != WALL_KEY}
        lines.append(json.dumps(stripped, sort_keys=True))
    return "\n".join(lines) + "\n" if lines else ""


def _rollup_rows(title: str, header: tuple[str, ...], rows: list[tuple]) -> list[str]:
    """Render one titled fixed-width table section."""

    widths = [
        max(len(str(header[i])), max((len(str(row[i])) for row in rows), default=0))
        for i in range(len(header))
    ]
    lines = [title]
    lines.append("  " + "  ".join(f"{header[i]:<{widths[i]}}" for i in range(len(header))))
    for row in rows:
        lines.append("  " + "  ".join(f"{str(row[i]):<{widths[i]}}" for i in range(len(header))))
    return lines


def _read_one_run(path: str | Path) -> list[dict[str, Any]]:
    """The records of a trace file, refused when it holds a second manifest."""

    records = read_trace(path)
    manifests = [record for record in records if record.get("kind") == "manifest"]
    if len(manifests) > 1:
        raise ValueError(
            f"trace {str(path)!r} holds a second 'manifest' record "
            f"(seq {manifests[1].get('seq')}): a trace file holds one run"
        )
    return records


def summarize_trace(path: str | Path) -> str:
    """Per-node rollups of the one run a trace file holds.

    Renders the manifest identity line, record counts by kind, the
    evaluation trajectory end points, a per-node table (messages and bytes
    received, plus rounds completed when the run's round records name a
    node, as the event loop's do; a lock-step run's rounds are global and its
    ``rounds_completed`` line already counts them) and the peak RSS carried
    by the ``run_end`` record.  A file holding a second ``manifest`` record
    is refused with :class:`ValueError`.
    """

    records = _read_one_run(path)
    if not records:
        return f"trace {str(path)!r} is empty"

    manifest = records[0] if records[0].get("kind") == "manifest" else {}
    identity = " ".join(
        f"{key}={manifest[key]}"
        for key in ("scheme", "task", "num_nodes", "rounds", "seed", "execution")
        if key in manifest
    )
    spec_hash = manifest.get("spec_hash")
    if spec_hash:
        identity += f" spec={str(spec_hash)[:12]}..."
    lines: list[str] = [f"trace: {path}  ({len(records)} record(s))", ""]
    lines.append(f"run: {identity}" if identity else "run:")

    counts: dict[str, int] = {}
    per_node: dict[int, dict[str, float]] = {}
    node_rounds = False
    evaluations: list[dict[str, Any]] = []
    run_end: dict[str, Any] | None = None
    for record in records:
        kind = record.get("kind", "?")
        counts[kind] = counts.get(kind, 0) + 1
        if kind == "message":
            node = per_node.setdefault(
                int(record["receiver"]), {"rounds": 0, "messages": 0, "bytes": 0.0}
            )
            node["messages"] += 1
            node["bytes"] += float(record.get("bytes", 0.0))
        elif kind == "round" and record.get("node") is not None:
            node = per_node.setdefault(
                int(record["node"]), {"rounds": 0, "messages": 0, "bytes": 0.0}
            )
            node["rounds"] += 1
            node_rounds = True
        elif kind == "evaluate":
            evaluations.append(record)
        elif kind == "run_end":
            run_end = record

    lines.append(
        "  records: " + ", ".join(f"{kind}={counts[kind]}" for kind in sorted(counts))
    )
    if run_end is not None:
        lines.append(
            f"  rounds_completed={run_end.get('rounds_completed')} "
            f"total_bytes={run_end.get('total_bytes')}"
        )
    if evaluations:
        first, last = evaluations[0], evaluations[-1]
        lines.append(
            f"  accuracy: {first.get('accuracy'):.4f} (round {first.get('round')})"
            f" -> {last.get('accuracy'):.4f} (round {last.get('round')})"
        )
    if per_node:
        columns = ("rounds", "messages", "bytes") if node_rounds else ("messages", "bytes")
        rows = [
            (node_id, *(int(per_node[node_id][column]) for column in columns))
            for node_id in sorted(per_node)
        ]
        header = ("node", "rounds") if node_rounds else ("node",)
        lines.extend(
            _rollup_rows("  per-node:", header + ("messages_received", "bytes_received"), rows)
        )
    peak_rss = (run_end or {}).get(WALL_KEY, {}).get("peak_rss_bytes")
    if peak_rss:
        lines.append(f"  peak_rss: {peak_rss / (1024 * 1024):.1f} MiB")
    return "\n".join(lines)


def summarize_trace_dir(path: str | Path) -> str:
    """Cross-cell rollup of a sweep's trace directory (``*.trace.jsonl``).

    ``run_sweep(trace_dir=...)`` writes one ``<spec hash>.trace.jsonl`` per
    executed cell; this renders the whole directory as one table — per cell:
    record counts, rounds completed, total simulated bytes and the final
    accuracy — so a sweep's traces are inspectable without summarizing each
    file by hand.  A file holding a second ``manifest`` record is refused
    with :class:`ValueError`, as in :func:`summarize_trace`.
    """

    directory = Path(path)
    trace_files = sorted(directory.glob("*.trace.jsonl"))
    if not trace_files:
        return f"no *.trace.jsonl files in {directory}"

    rows = []
    totals = {"records": 0, "messages": 0, "bytes": 0.0}
    for trace_file in trace_files:
        records = _read_one_run(trace_file)
        manifest = records[0] if records and records[0].get("kind") == "manifest" else {}
        messages = sum(1 for record in records if record.get("kind") == "message")
        run_end = next(
            (record for record in reversed(records) if record.get("kind") == "run_end"),
            {},
        )
        evaluations = [record for record in records if record.get("kind") == "evaluate"]
        final_accuracy = (
            f"{evaluations[-1].get('accuracy'):.4f}" if evaluations else "-"
        )
        total_bytes = run_end.get("total_bytes", 0.0) or 0.0
        rows.append(
            (
                trace_file.name[:20],
                str(manifest.get("scheme", "?")),
                str(manifest.get("seed", "?")),
                len(records),
                run_end.get("rounds_completed", "?"),
                messages,
                int(total_bytes),
                final_accuracy,
            )
        )
        totals["records"] += len(records)
        totals["messages"] += messages
        totals["bytes"] += float(total_bytes)

    lines = [f"trace dir: {directory}  ({len(trace_files)} cell trace(s))", ""]
    lines.extend(
        _rollup_rows(
            "per-cell:",
            ("trace", "scheme", "seed", "records", "rounds", "messages", "bytes", "final_acc"),
            rows,
        )
    )
    lines.append("")
    lines.append(
        f"totals: records={totals['records']} messages={totals['messages']} "
        f"bytes={int(totals['bytes'])}"
    )
    return "\n".join(lines)
