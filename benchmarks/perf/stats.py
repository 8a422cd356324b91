"""Estimators the benchmark reports: per-operation min-of-k, medians, tails, spreads.

The simulator is deterministic, so operation *i* (a round, an evaluation, a
sweep cell) does identical work in every repeat of a run.  Host noise on a
shared sandbox only ever *adds* time, so the minimum over repeats of one
operation's wall interval is the least contaminated reading of it; a median
over operations then summarizes the run.  See README.md ("The estimator").
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

__all__ = [
    "describe",
    "per_op_min",
    "relative_change",
    "tail_percentile",
]

#: A percentile is only reported when at least this many samples lie beyond it.
TAIL_SAMPLES = 10


def per_op_min(repeats: Sequence[Sequence[float]]) -> list[float]:
    """Operation-wise minimum over repeats of the same deterministic run.

    Every repeat must hold the same number of operations, in the same order;
    anything else means the repeats did different work and cannot be combined.
    """

    if not repeats:
        raise ValueError("need at least one repeat")
    lengths = {len(repeat) for repeat in repeats}
    if len(lengths) != 1:
        raise ValueError(
            f"repeats hold different operation counts {sorted(lengths)}; "
            "the run is not deterministic"
        )
    return [min(values) for values in zip(*repeats)]


def tail_percentile(samples: Sequence[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value)`` — e.g. ``(90.0, v)`` for 100 samples, where
    exactly ten samples are larger than or equal to the next order statistic —
    or ``None`` when that percentile would not lie above the median (20 samples
    or fewer), in which case only the median is worth printing.
    """

    count = len(samples)
    if count <= 2 * TAIL_SAMPLES:
        return None
    ordered = sorted(samples)
    return 100.0 * (count - TAIL_SAMPLES) / count, ordered[count - TAIL_SAMPLES - 1]


def describe(samples: Sequence[float]) -> dict[str, float | int | None]:
    """Median, reportable tail percentile and sample count of a timing series."""

    if not samples:
        return {"median": None, "tail_percentile": None, "tail_value": None, "samples": 0}
    tail = tail_percentile(samples)
    return {
        "median": statistics.median(samples),
        "tail_percentile": None if tail is None else tail[0],
        "tail_value": None if tail is None else tail[1],
        "samples": len(samples),
    }


def relative_change(before: float, after: float, better: str) -> float:
    """How much worse ``after`` is than ``before``, as a share of ``before``.

    Positive means worse in the metric's own direction (``better`` is
    ``"lower"`` or ``"higher"``), so the result compares directly to a bound.
    """

    if before == 0:
        return 0.0 if after == before else math.inf
    change = (after - before) / abs(before)
    return change if better == "lower" else -change
