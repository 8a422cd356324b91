"""Committed baseline of grandfathered findings.

A baseline lets the gate land green on a tree with known, not-yet-fixed
findings: every finding matching a baseline entry is reported as
``baselined`` instead of failing the run.  Matching ignores line numbers —
an entry is ``(rule, path, stripped source line)`` — so unrelated edits that
shift a grandfathered line do not resurrect it.  Each entry absorbs exactly
one finding (multiset semantics): introducing a *second* identical violation
still fails.

The repo ships an empty baseline (``.analysis-baseline.json``); the intent is
that real violations get fixed and intentional exemptions use inline
``# repro: allow[...]`` comments with a reason, keeping this file empty.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.core import Finding
from repro.exceptions import ConfigurationError

__all__ = ["Baseline"]

BASELINE_VERSION = 1


class Baseline:
    """A multiset of grandfathered finding fingerprints."""

    def __init__(self, entries: Iterable[dict] | None = None) -> None:
        self._entries = Counter(
            (entry["rule"], entry["path"], entry.get("code", ""))
            for entry in (entries or ())
        )

    @classmethod
    def load(cls, path: str | Path) -> "Baseline":
        """Read a baseline file; malformed documents fail loudly."""

        try:
            document = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as error:
            raise ConfigurationError(f"cannot read baseline {str(path)!r}: {error}") from error
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                f"baseline {str(path)!r} is not valid JSON: {error}"
            ) from error
        if not isinstance(document, dict) or document.get("version") != BASELINE_VERSION:
            raise ConfigurationError(
                f"baseline {str(path)!r} is not a version-{BASELINE_VERSION} "
                "analysis baseline"
            )
        entries = document.get("entries", [])
        if not isinstance(entries, list) or not all(
            isinstance(entry, dict) and "rule" in entry and "path" in entry
            for entry in entries
        ):
            raise ConfigurationError(
                f"baseline {str(path)!r} entries must be objects with rule/path keys"
            )
        return cls(entries)

    @classmethod
    def from_findings(cls, findings: Sequence[Finding]) -> "Baseline":
        """Baseline that grandfathers exactly ``findings``."""

        baseline = cls()
        baseline._entries = Counter(finding.fingerprint() for finding in findings)
        return baseline

    def save(self, path: str | Path) -> Path:
        """Write the baseline as sorted, stable JSON (round-trips exactly)."""

        entries = []
        for (rule, file_path, code), count in sorted(self._entries.items()):
            entries.extend(
                {"rule": rule, "path": file_path, "code": code} for _ in range(count)
            )
        path = Path(path)
        path.write_text(
            json.dumps({"version": BASELINE_VERSION, "entries": entries}, indent=2)
            + "\n",
            encoding="utf-8",
        )
        return path

    def split(self, findings: Sequence[Finding]) -> tuple[list[Finding], list[Finding]]:
        """Partition ``findings`` into (fresh, baselined).

        Each baseline entry absorbs at most one finding; order is preserved.
        """

        remaining = Counter(self._entries)
        fresh: list[Finding] = []
        grandfathered: list[Finding] = []
        for finding in findings:
            key = finding.fingerprint()
            if remaining.get(key, 0) > 0:
                remaining[key] -= 1
                grandfathered.append(finding)
            else:
                fresh.append(finding)
        return fresh, grandfathered
