"""Append-only JSONL store of experiment results, keyed by spec content hash.

One line per completed run::

    {"key": "<sha256 of the spec>", "spec": {...}, "result": {...}}

Append-only writes make interruption safe: a sweep killed mid-run leaves at
worst one truncated final line, which :meth:`ResultStore._load` discards and
cuts off the file (so the next :meth:`ResultStore.put` starts a fresh line),
and every completed cell before it survives.  Looking a spec up by content hash
gives resume (completed cells are skipped) and invalidation (any change to the
spec — workload, scheme parameters, config overrides — changes the hash, so
stale results are simply never matched) in one mechanism.

A store constructed without a path is purely in-memory — handy for benchmarks
and tests that only need the run/collect/render pipeline.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.exceptions import ConfigurationError
from repro.observability.contract import scrub_telemetry
from repro.orchestration.spec import ExperimentSpec
from repro.simulation import ExperimentResult

__all__ = ["ResultStore"]


class ResultStore:
    """Content-addressed persistence for sweep results."""

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self._records: dict[str, dict[str, Any]] = {}
        self.discarded_lines = 0
        #: Bytes of a torn final line (no newline) cut off the file on open.
        self.repaired_tail_bytes = 0
        if self.path is not None and self.path.exists():
            self._load()

    # -- loading -------------------------------------------------------------------
    def _load(self) -> None:
        assert self.path is not None
        torn = ""
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                if not line.endswith("\n"):
                    torn = line  # a row is committed by its newline
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    key = record["key"]
                    record["spec"], record["result"]
                except (json.JSONDecodeError, KeyError, TypeError):
                    # A truncated/corrupt line (interrupted writer); the cell
                    # will simply be recomputed.
                    self.discarded_lines += 1
                    continue
                self._records[key] = record  # last write wins
        if torn:
            # The writer died mid-append.  Cut the fragment off, or the next
            # ``put`` is glued onto it and discarded on the following open.
            self.discarded_lines += 1
            self.repaired_tail_bytes = len(torn.encode("utf-8"))
            with self.path.open("rb+") as handle:
                handle.truncate(handle.seek(0, os.SEEK_END) - self.repaired_tail_bytes)

    # -- querying ------------------------------------------------------------------
    @staticmethod
    def key_for(spec: ExperimentSpec | str) -> str:
        """The store key of ``spec`` (a content hash, passed through if a str)."""

        return spec if isinstance(spec, str) else spec.content_hash()

    def __len__(self) -> int:
        return len(self._records)

    def get(self, spec: ExperimentSpec | str) -> ExperimentResult | None:
        """The stored result for ``spec``, or ``None`` when absent."""

        record = self._records.get(self.key_for(spec))
        if record is None:
            return None
        return ExperimentResult.from_dict(record["result"])

    # -- writing -------------------------------------------------------------------
    def put(
        self,
        spec: ExperimentSpec,
        result: ExperimentResult | Mapping[str, Any],
    ) -> str:
        """Record ``result`` for ``spec``; returns the store key.

        ``result`` may already be a ``to_dict()`` mapping (workers ship dicts
        across the process boundary); both forms store identically.

        The reserved telemetry keys (see
        :data:`repro.observability.contract.TELEMETRY_RESULT_FIELDS`) are
        scrubbed to their empty defaults before the row is written: stored
        rows are part of the determinism contract and must be byte-identical
        whether or not the run was instrumented.
        """

        result_dict = scrub_telemetry(
            result.to_dict() if isinstance(result, ExperimentResult) else result
        )
        key = spec.content_hash()
        record = {"key": key, "spec": spec.to_dict(), "result": result_dict}
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._records[key] = record
        return key

    # -- maintenance ---------------------------------------------------------------
    def compact(self) -> dict[str, int]:
        """Rewrite the JSONL file keeping only the live row per content hash.

        Append-only writes accumulate superseded rows (``--force`` re-runs,
        ``last write wins`` duplicates) and the odd truncated line from an
        interrupted writer.  Compaction rewrites the file atomically with
        exactly one row per key — the same row :meth:`get` already serves, in
        first-seen key order — so reads are unchanged, only the file shrinks.

        Returns a summary: ``lines_before`` (non-empty lines in the old
        file), ``rows_after``, ``superseded`` (valid rows dropped because a
        newer row shares their key) and ``corrupt`` (undecodable lines
        dropped).
        """

        if self.path is None:
            raise ConfigurationError("an in-memory store has no file to compact")
        if not self.path.exists():
            raise ConfigurationError(f"store file {str(self.path)!r} does not exist")

        lines_before = 0
        corrupt = 0
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                lines_before += 1
                try:
                    record = json.loads(line)
                    record["key"], record["spec"], record["result"]
                except (json.JSONDecodeError, KeyError, TypeError):
                    corrupt += 1

        temporary = self.path.with_name(self.path.name + ".compact.tmp")
        with temporary.open("w", encoding="utf-8") as handle:
            for record in self._records.values():
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        os.replace(temporary, self.path)
        rows_after = len(self._records)
        return {
            "lines_before": lines_before,
            "rows_after": rows_after,
            "superseded": lines_before - corrupt - rows_after,
            "corrupt": corrupt,
        }
