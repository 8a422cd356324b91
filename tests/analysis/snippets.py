"""The rule tests' entry point: analyze a source snippet held in memory."""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from repro.analysis import engine
from repro.analysis.context import FileContext
from repro.analysis.core import Finding, Rule, all_rules


def analyze_source(
    source: str,
    filename: str = "<memory>.py",
    rules: Sequence[Rule] | None = None,
) -> list[Finding]:
    """Analyze an in-memory snippet as the engine analyzes one file.

    ``filename`` controls module-scoped rules: pass a path shaped like the
    real tree (e.g. ``src/repro/simulation/engine.py``) to exercise them.
    """

    path = Path(filename)
    ctx = FileContext.build(path, path.as_posix(), source)
    selected = list(rules) if rules is not None else all_rules()
    return sorted(engine._analyze_context(ctx, selected), key=Finding.sort_key)
