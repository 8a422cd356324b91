"""The telemetry side of the determinism contract.

Telemetry (metrics, traces, status heartbeats) measures real machines doing
real work, so it can never be part of the byte-identical replay guarantees.
None of it rides on :class:`~repro.simulation.metrics.ExperimentResult`.
What is left here are the row format's reserved keys: a result row carries
:data:`TELEMETRY_RESULT_FIELDS` with their empty values, which
``ExperimentResult.to_dict`` writes as constants and ``from_dict`` drops, and
:func:`scrub_telemetry` resets them to empty in a row from elsewhere.  A fully
instrumented run (``--trace --metrics --status``) persists rows byte-identical
to a telemetry-off run's — pinned by
``tests/observability/test_telemetry_determinism.py``.
"""

from __future__ import annotations

from typing import Any, Mapping

__all__ = ["TELEMETRY_RESULT_FIELDS", "scrub_telemetry"]

#: Reserved result-row keys, mapped to the empty value every row holds.  They
#: stay in the row format until the next store epoch drops them.
TELEMETRY_RESULT_FIELDS: dict[str, Any] = {
    "phase_seconds": dict,
    "round_phase_seconds": list,
    "memory": dict,
}


def scrub_telemetry(result_dict: Mapping[str, Any]) -> dict[str, Any]:
    """A copy of a result payload with every telemetry field reset to empty.

    Keys absent from ``result_dict`` (legacy payloads) stay absent, so the
    scrub never changes the byte representation of rows that carried no
    telemetry in the first place.
    """

    scrubbed = dict(result_dict)
    for name, default in TELEMETRY_RESULT_FIELDS.items():
        if name in scrubbed:
            scrubbed[name] = default()
    return scrubbed
