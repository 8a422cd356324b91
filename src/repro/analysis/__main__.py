"""CLI for the static-analysis suite.

Usage::

    python -m repro.analysis [paths...]
    python -m repro.analysis --rule DET001 --rule DET002 src/repro/simulation
    python -m repro.analysis --list-rules

The report is one ``path:line:col: RULE: message`` line per finding, then a
summary line.  Exit codes: 0 = clean, 1 = findings, 2 = usage/configuration
error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.core import all_rules, get_rule
from repro.analysis.engine import AnalysisReport, analyze_paths
from repro.exceptions import ConfigurationError

#: Scanned when no paths are given (whichever of these exist).
DEFAULT_PATHS = ("src", "README.md", "docs")


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.analysis`` argument parser."""

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static analysis for determinism and serialization contracts.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: src README.md docs)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="ID",
        help="run only this rule (repeatable)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    return parser


def _list_rules() -> str:
    lines = []
    for rule in all_rules():
        suffixes = ",".join(rule.file_suffixes)
        lines.append(f"{rule.id}  ({suffixes})  {rule.summary}")
    return "\n".join(lines)


def render_text(report: AnalysisReport) -> str:
    """One line per finding, then a summary line."""

    lines = [
        f"{finding.path}:{finding.line}:{finding.column}: {finding.rule}: {finding.message}"
        for finding in report.findings
    ]
    if report.findings:
        summary = f"analysis FAILED: {len(report.findings)} finding(s)"
    else:
        summary = "analysis OK: 0 findings"
    lines.append(f"{summary} in {report.files_scanned} file(s)")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""

    parser = build_parser()
    options = parser.parse_args(argv)
    try:
        if options.list_rules:
            print(_list_rules())
            return 0
        rules = None
        if options.rule:
            rules = [get_rule(rule_id) for rule_id in options.rule]
        paths = options.paths or [p for p in DEFAULT_PATHS if Path(p).exists()]
        if not paths:
            raise ConfigurationError(
                "no analysis targets: pass paths explicitly or run from the repo root"
            )
        report = analyze_paths(paths, rules=rules)
        print(render_text(report))
        return 0 if report.ok else 1
    except ConfigurationError as error:
        print(f"analysis: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
