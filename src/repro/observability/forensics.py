"""Divergence forensics: turn "store bytes differ" into a root-cause report.

The wall-stripped trace oracle (PR 7) pins that two runs of the same spec
emit byte-identical event streams; this module is the debugger that fires
when they do not.  :func:`diff_traces` aligns two traces structurally — by
each record's ``(kind, seq)`` — and reports:

* the **first divergent record** (everything before it is identical, so the
  divergence necessarily *originates* at or before that event);
* the **exact differing fields**, with numeric drift (absolute and relative
  delta for floats, per-element deltas for small arrays, a summary for
  large ones);
* a **causal backtrace**: the ``message`` deliveries feeding the divergent
  round and the rounds before it, each marked agree/diverged, so the first
  disagreeing sender/round/delivery is named explicitly.

The result is a :class:`TraceDiff` — renderable as text for humans
(``jwins-repro trace diff A B``) or as JSON for the fuzzer's shrunk failure
reports (``--json``).  Wall sections are stripped before comparison, so two
traces of the same run never differ by timestamps alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro.observability.trace import WALL_KEY, read_trace

__all__ = ["FieldDrift", "TraceDiff", "diff_traces"]

#: Arrays up to this length get per-element drift entries; longer ones a summary.
SMALL_ARRAY_LIMIT = 16

#: How many rounds of message deliveries the causal backtrace walks through.
BACKTRACE_ROUNDS = 3


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class FieldDrift:
    """One differing field of the first divergent record."""

    field: str
    a_value: Any
    b_value: Any
    abs_delta: float | None = None
    rel_delta: float | None = None
    note: str | None = None

    # Hand-written, not the record codec's: a report is written, never read back.
    def to_dict(self) -> dict[str, Any]:
        """JSON-safe representation (used by ``trace diff --json``)."""

        data: dict[str, Any] = {
            "field": self.field,
            "a": self.a_value,
            "b": self.b_value,
        }
        if self.abs_delta is not None:
            data["abs_delta"] = self.abs_delta
        if self.rel_delta is not None:
            data["rel_delta"] = self.rel_delta
        if self.note is not None:
            data["note"] = self.note
        return data

    def describe(self) -> str:
        """One human-readable line for the rendered report."""

        line = f"field {self.field!r}: {self.a_value!r} vs {self.b_value!r}"
        if self.abs_delta is not None:
            line += f"  (abs delta {self.abs_delta:.6g}, rel delta {self.rel_delta:.6g})"
        if self.note is not None:
            line += f"  [{self.note}]"
        return line


def _numeric_drift(name: str, a: Any, b: Any) -> FieldDrift:
    abs_delta = abs(float(a) - float(b))
    scale = max(abs(float(a)), abs(float(b)))
    return FieldDrift(
        field=name,
        a_value=a,
        b_value=b,
        abs_delta=abs_delta,
        rel_delta=abs_delta / scale if scale else 0.0,
    )


def _array_drifts(name: str, a: list, b: list) -> list[FieldDrift]:
    """Drift entries for one differing array-valued field."""

    if len(a) != len(b):
        return [
            FieldDrift(
                field=name,
                a_value=f"<{len(a)} element(s)>",
                b_value=f"<{len(b)} element(s)>",
                note="array lengths differ",
            )
        ]
    if len(a) <= SMALL_ARRAY_LIMIT:
        drifts: list[FieldDrift] = []
        for index, (left, right) in enumerate(zip(a, b)):
            if left == right:
                continue
            element = f"{name}[{index}]"
            if _is_number(left) and _is_number(right):
                drifts.append(_numeric_drift(element, left, right))
            else:
                drifts.append(FieldDrift(field=element, a_value=left, b_value=right))
        return drifts
    first = next(i for i in range(len(a)) if a[i] != b[i])
    differing = sum(1 for left, right in zip(a, b) if left != right)
    numeric = [
        abs(float(left) - float(right))
        for left, right in zip(a, b)
        if _is_number(left) and _is_number(right) and left != right
    ]
    note = f"{differing}/{len(a)} element(s) differ, first at index {first}"
    if numeric:
        note += f", max abs delta {max(numeric):.6g}"
    return [FieldDrift(field=name, a_value=a[first], b_value=b[first], note=note)]


def _field_drifts(a_record: dict[str, Any], b_record: dict[str, Any]) -> list[FieldDrift]:
    """Every differing field of two same-kind records, sorted by field name."""

    drifts: list[FieldDrift] = []
    for name in sorted(set(a_record) | set(b_record)):
        if name not in a_record or name not in b_record:
            drifts.append(
                FieldDrift(
                    field=name,
                    a_value=a_record.get(name),
                    b_value=b_record.get(name),
                    note="field present in only one trace",
                )
            )
            continue
        a, b = a_record[name], b_record[name]
        if a == b:
            continue
        if _is_number(a) and _is_number(b):
            drifts.append(_numeric_drift(name, a, b))
        elif isinstance(a, list) and isinstance(b, list):
            drifts.extend(_array_drifts(name, a, b))
        else:
            drifts.append(FieldDrift(field=name, a_value=a, b_value=b))
    return drifts


@dataclass
class TraceDiff:
    """The structural comparison of two wall-stripped traces.

    ``identical`` short-circuits everything else.  Otherwise ``seq``/``kind``
    locate the first divergent record, ``reason`` classifies it
    (``"field-drift"``, ``"kind-mismatch"``, ``"truncated"``), ``drifts``
    carries the per-field deltas, ``round`` is the communication round the
    record belongs to, ``backtrace`` lists the deliveries feeding that round
    and the rounds before it, and ``origin`` is the one-sentence diagnosis.
    """

    a_label: str
    b_label: str
    a_records: int
    b_records: int
    identical: bool
    seq: int | None = None
    kind: str | None = None
    reason: str | None = None
    round: int | None = None
    a_record: dict[str, Any] | None = None
    b_record: dict[str, Any] | None = None
    drifts: list[FieldDrift] = field(default_factory=list)
    backtrace: list[dict[str, Any]] = field(default_factory=list)
    origin: str | None = None

    # Hand-written, not the record codec's: a report is written, never read back.
    def to_dict(self) -> dict[str, Any]:
        """JSON-safe representation of the full report."""

        return {
            "a": self.a_label,
            "b": self.b_label,
            "a_records": self.a_records,
            "b_records": self.b_records,
            "identical": self.identical,
            "seq": self.seq,
            "kind": self.kind,
            "reason": self.reason,
            "round": self.round,
            "a_record": self.a_record,
            "b_record": self.b_record,
            "drifts": [drift.to_dict() for drift in self.drifts],
            "backtrace": self.backtrace,
            "origin": self.origin,
        }

    def render(self) -> str:
        """The human-readable forensic report."""

        lines = [
            f"trace diff: {self.a_label} vs {self.b_label}",
            f"  records: {self.a_records} vs {self.b_records} (wall sections stripped)",
        ]
        if self.identical:
            lines.append("  traces are IDENTICAL after wall-stripping")
            return "\n".join(lines)
        where = f"seq {self.seq} kind={self.kind}"
        if self.round is not None:
            where += f" round={self.round}"
        lines.append(f"first divergent record: {where}  [{self.reason}]")
        for drift in self.drifts:
            lines.append(f"  {drift.describe()}")
        if self.reason == "truncated":
            lines.append(f"  a: {json.dumps(self.a_record, sort_keys=True) if self.a_record else '<absent>'}")
            lines.append(f"  b: {json.dumps(self.b_record, sort_keys=True) if self.b_record else '<absent>'}")
        if self.backtrace:
            lines.append("causal backtrace (deliveries feeding the divergent round, newest first):")
            for entry in self.backtrace:
                deliveries = entry["deliveries"]
                if entry["agree"] and deliveries:
                    lines.append(
                        f"  round {entry['round']}: {len(deliveries)} deliver(ies), all agree"
                    )
                    continue
                lines.append(f"  round {entry['round']}:")
                if not deliveries:
                    lines.append("    (no deliveries recorded)")
                for delivery in deliveries:
                    status = "ok" if delivery["agree"] else "DIVERGED"
                    lines.append(
                        f"    seq {delivery['seq']:>5}  sender {delivery['sender']} -> "
                        f"receiver {delivery['receiver']}  bytes={delivery['bytes']:g}  {status}"
                    )
        if self.origin:
            lines.append(f"origin: {self.origin}")
        return "\n".join(lines)


def _load(source: str | Path | Sequence[dict[str, Any]]) -> tuple[list[dict[str, Any]], str]:
    """``(wall-stripped records, label)`` for a path or an in-memory record list."""

    if isinstance(source, (str, Path)):
        records, label = read_trace(source), str(source)
    else:
        records, label = list(source), "<records>"
    stripped = [
        {key: value for key, value in record.items() if key != WALL_KEY}
        for record in records
    ]
    return stripped, label


def _seq_of(record: dict[str, Any], position: int) -> int:
    """The record's alignment key (its ``seq``, falling back to file position)."""

    value = record.get("seq")
    return int(value) if isinstance(value, int) else position


def _record_round(records: list[dict[str, Any]], position: int) -> int | None:
    """The communication round the record at ``position`` belongs to.

    ``round``/``evaluate`` records carry it; a ``message`` is attributed to
    the round whose end is emitted next (deliveries happen *within* a round);
    a ``checkpoint`` reports its completed-round count.
    """

    record = records[position]
    if "round" in record:
        value = record["round"]
        return int(value) if isinstance(value, int) else None
    kind = record.get("kind")
    if kind in ("checkpoint", "run_end") and "rounds_completed" in record:
        return int(record["rounds_completed"])
    if kind == "message":
        for later in records[position + 1 :]:
            if later.get("kind") == "round" and isinstance(later.get("round"), int):
                return int(later["round"])
    return None


def _build_backtrace(
    a_records: list[dict[str, Any]],
    b_by_seq: dict[int, dict[str, Any]],
    divergent_round: int | None,
    divergent_seq: int,
) -> list[dict[str, Any]]:
    """Per-round delivery lists feeding the divergence, newest round first.

    Every record strictly before the divergent seq matched by construction
    (the diff reports the *first* divergence), so the backtrace's agree flags
    confirm that — and a divergent ``message`` record itself shows up as the
    single ``DIVERGED`` delivery, naming the first disagreeing sender.
    """

    if divergent_round is None:
        return []
    window = range(
        divergent_round, max(-1, divergent_round - BACKTRACE_ROUNDS), -1
    )
    per_round: dict[int, list[dict[str, Any]]] = {r: [] for r in window}
    for position, record in enumerate(a_records):
        if record.get("kind") != "message":
            continue
        seq = _seq_of(record, position)
        if seq > divergent_seq:
            break
        round_index = _record_round(a_records, position)
        if round_index not in per_round:
            continue
        per_round[round_index].append(
            {
                "seq": seq,
                "sender": record.get("sender"),
                "receiver": record.get("receiver"),
                "bytes": float(record.get("bytes", 0.0)),
                "agree": b_by_seq.get(seq) == record,
            }
        )
    backtrace = []
    for round_index in window:
        deliveries = per_round[round_index]
        backtrace.append(
            {
                "round": round_index,
                "deliveries": deliveries,
                "agree": all(delivery["agree"] for delivery in deliveries),
            }
        )
    return backtrace


def _diagnose(
    kind: str | None,
    reason: str,
    round_index: int | None,
    record: dict[str, Any] | None,
    a_label: str,
    b_label: str,
) -> str:
    """The one-sentence origin diagnosis of the first divergent record."""

    at_round = f" at round {round_index}" if round_index is not None else ""
    if reason == "truncated":
        short, long = (a_label, b_label) if record is None else (b_label, a_label)
        return (
            f"trace {short!r} ends before {long!r}{at_round}: one run stopped "
            "early or was truncated — every record both traces share is identical"
        )
    if reason == "kind-mismatch":
        return (
            f"the runs emit different event kinds{at_round}: the schedules "
            "themselves diverged (reordered or dropped events), not just a value"
        )
    if kind == "manifest":
        return (
            "the manifests differ: the two traces describe different experiments "
            "(compare their spec/seed fields before suspecting the engine)"
        )
    if kind == "message":
        sender = (record or {}).get("sender")
        return (
            f"first disagreement is a delivery from sender {sender}{at_round}: "
            f"node {sender}'s local state or payload encoding diverged at or "
            f"before round {round_index}"
        )
    if kind in ("round", "evaluate"):
        return (
            f"every delivery feeding round {round_index} agrees; the divergence "
            f"originates in node-local computation (training, aggregation or "
            f"evaluation){at_round}"
        )
    return f"divergence in a {kind!r} record{at_round}"


def diff_traces(
    a: str | Path | Sequence[dict[str, Any]],
    b: str | Path | Sequence[dict[str, Any]],
    a_label: str | None = None,
    b_label: str | None = None,
) -> TraceDiff:
    """Structurally compare two traces; the full contract is the module docstring.

    ``a``/``b`` are trace file paths or already-parsed record lists; wall
    sections are stripped before comparison either way.  ``a_label``/
    ``b_label`` override the names used in the rendered report.
    """

    a_records, a_name = _load(a)
    b_records, b_name = _load(b)
    a_label = a_label or a_name
    b_label = b_label or b_name

    a_by_seq = {_seq_of(record, i): record for i, record in enumerate(a_records)}
    b_by_seq = {_seq_of(record, i): record for i, record in enumerate(b_records)}
    diff = TraceDiff(
        a_label=a_label,
        b_label=b_label,
        a_records=len(a_records),
        b_records=len(b_records),
        identical=True,
    )

    a_positions = {_seq_of(record, i): i for i, record in enumerate(a_records)}
    b_positions = {_seq_of(record, i): i for i, record in enumerate(b_records)}
    for seq in sorted(set(a_by_seq) | set(b_by_seq)):
        a_record = a_by_seq.get(seq)
        b_record = b_by_seq.get(seq)
        if a_record == b_record:
            continue
        diff.identical = False
        diff.seq = seq
        diff.a_record = a_record
        diff.b_record = b_record
        present = a_record if a_record is not None else b_record
        records = a_records if a_record is not None else b_records
        positions = a_positions if a_record is not None else b_positions
        diff.round = _record_round(records, positions[seq])
        if a_record is None or b_record is None:
            diff.kind = present.get("kind") if present else None
            diff.reason = "truncated"
        elif a_record.get("kind") != b_record.get("kind"):
            diff.kind = f"{a_record.get('kind')}/{b_record.get('kind')}"
            diff.reason = "kind-mismatch"
            diff.drifts = [
                FieldDrift(
                    field="kind",
                    a_value=a_record.get("kind"),
                    b_value=b_record.get("kind"),
                    note="records of different kinds occupy the same seq",
                )
            ]
        else:
            diff.kind = a_record.get("kind")
            diff.reason = "field-drift"
            diff.drifts = _field_drifts(a_record, b_record)
        diff.backtrace = _build_backtrace(a_records, b_by_seq, diff.round, seq)
        diff.origin = _diagnose(
            diff.kind, diff.reason, diff.round, a_record or b_record, a_label, b_label
        )
        break
    return diff
