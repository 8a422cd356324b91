"""Peak-memory reading for run telemetry.

:func:`peak_rss_bytes` is the OS-reported high-water mark of the process'
resident set (``resource.getrusage``), free to read and always available on
POSIX; reported in bytes regardless of the platform's native unit.  The
trace's ``run_end`` record carries it under its ``"wall"`` key: memory numbers
depend on the allocator, the interpreter version and whatever else the
process did first, so they stay outside the determinism contract.
"""

from __future__ import annotations

import sys

__all__ = ["peak_rss_bytes"]


def peak_rss_bytes() -> int:
    """The process' peak resident set size in bytes (0 where unsupported)."""

    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    if sys.platform != "darwin":
        peak *= 1024
    return int(peak)
