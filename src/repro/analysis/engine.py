"""The single-pass analysis engine.

For every target file the engine builds one :class:`~repro.analysis.context.
FileContext` (source, AST, import table, parent map), then

* walks the AST **once**, dispatching each node to the rules that registered
  interest in its type, and
* calls every applicable rule's :meth:`~repro.analysis.core.Rule.check_file`
  once (markdown rules live entirely in this hook).

Every finding fails the gate: exemptions live in each rule's module scoping
(:meth:`~repro.analysis.core.Rule.applies_to`), never in the analysed source.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.analysis.context import FileContext
from repro.analysis.core import Finding, Rule, all_rules
from repro.exceptions import ConfigurationError

__all__ = ["AnalysisReport", "analyze_paths", "collect_files"]

#: File suffixes the engine looks at when expanding directories.
_SCANNED_SUFFIXES = (".py", ".md")
#: Directory names never descended into.
_SKIPPED_DIRS = {"__pycache__", ".git", ".pytest_cache", "node_modules"}


@dataclass
class AnalysisReport:
    """Outcome of one analysis run: the findings, sorted by location."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def ok(self) -> bool:
        """Whether the gate passes (no findings at all)."""

        return not self.findings


def collect_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand ``paths`` into the sorted list of analyzable files.

    Directories are walked recursively for ``.py``/``.md`` files; explicit
    file arguments are taken as-is (any suffix).  Missing paths fail loudly.
    """

    collected: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for suffix in _SCANNED_SUFFIXES:
                for candidate in path.rglob(f"*{suffix}"):
                    if not _SKIPPED_DIRS.intersection(candidate.parts):
                        collected.append(candidate)
        elif path.is_file():
            collected.append(path)
        else:
            raise ConfigurationError(f"analysis target {str(path)!r} does not exist")
    unique = sorted(set(collected), key=lambda p: p.as_posix())
    return unique


def _display_path(path: Path) -> str:
    """Findings report paths relative to the invocation cwd when possible."""

    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


def _analyze_context(ctx: FileContext, rules: Sequence[Rule]) -> list[Finding]:
    """All findings for one built context, in dispatch order."""

    applicable = [
        rule
        for rule in rules
        if ctx.path.suffix in rule.file_suffixes and rule.applies_to(ctx)
    ]
    findings: list[Finding] = []
    if ctx.tree is not None:
        dispatch: dict[type, list[Rule]] = {}
        for rule in applicable:
            for node_type in rule.node_types:
                dispatch.setdefault(node_type, []).append(rule)
        if dispatch:
            for node in ast.walk(ctx.tree):
                for rule in dispatch.get(type(node), ()):
                    findings.extend(rule.visit(node, ctx))
    for rule in applicable:
        findings.extend(rule.check_file(ctx))
    return findings


def analyze_paths(
    paths: Sequence[str | Path],
    rules: Sequence[Rule] | None = None,
) -> AnalysisReport:
    """Run ``rules`` (default: all registered) over ``paths``."""

    selected = list(rules) if rules is not None else all_rules()
    report = AnalysisReport()
    for path in collect_files(paths):
        display = _display_path(path)
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as error:
            raise ConfigurationError(f"cannot read {display!r}: {error}") from error
        try:
            ctx = FileContext.build(path, display, source)
        except SyntaxError as error:
            # The lint stage byte-compiles everything first, but a direct
            # invocation must still fail loudly on an unparseable file.
            report.findings.append(
                Finding(
                    rule="SYNTAX",
                    path=display,
                    line=int(error.lineno or 1),
                    column=int(error.offset or 0),
                    message=f"file does not parse: {error.msg}",
                )
            )
            report.files_scanned += 1
            continue
        report.files_scanned += 1
        report.findings.extend(_analyze_context(ctx, selected))
    report.findings.sort(key=Finding.sort_key)
    return report
