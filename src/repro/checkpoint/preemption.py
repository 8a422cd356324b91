"""Cooperative preemption of running simulations.

A preempted run does not die mid-round: it finishes the round it is in,
captures a :class:`~repro.checkpoint.snapshot.SimulationSnapshot` at the next
safe boundary and raises
:class:`~repro.exceptions.ExperimentPaused`.  This module is the glue between
an *external* stop request (``SIGINT`` on a sweep, a worker being reclaimed)
and the engine's safe points:

* :func:`request_preempt` — typically called from a signal handler — flags the
  process as interrupted, so every running simulator stops at its next
  checkpoint boundary;
* :func:`install_preemption_handler` wires ``SIGINT`` to
  :func:`request_preempt`; the sweep executor installs it in the main process
  and in every pool worker while checkpointing is enabled.

All state is per-process; pool workers inherit nothing and install their own
handler via their initializer.
"""

from __future__ import annotations

import signal
import threading
from typing import Any, Callable

__all__ = [
    "install_preemption_handler",
    "interrupted",
    "request_preempt",
    "reset",
    "restore_handler",
]

_interrupted = False


def request_preempt() -> None:
    """Flag the process as interrupted; runs pause at their next safe point.

    Safe to call from a signal handler: it only flips a boolean.  Running
    simulators notice through ``checkpoint_stop_pending()``, which consults
    :func:`interrupted` at every snapshot-safe boundary.
    """

    global _interrupted
    _interrupted = True


def interrupted() -> bool:
    """Whether :func:`request_preempt` fired in this process."""

    return _interrupted


def reset() -> None:
    """Clear the interrupted flag (tests, new sweeps)."""

    global _interrupted
    _interrupted = False


def install_preemption_handler() -> Callable[..., Any] | int | None:
    """Route ``SIGINT`` to :func:`request_preempt`; returns the old handler.

    Only the main thread of a process may install signal handlers; callers in
    other threads get ``None`` back and no handler change.
    """

    if threading.current_thread() is not threading.main_thread():
        return None
    previous = signal.getsignal(signal.SIGINT)
    signal.signal(signal.SIGINT, lambda signum, frame: request_preempt())
    return previous


def restore_handler(previous: Callable[..., Any] | int | None) -> None:
    """Undo :func:`install_preemption_handler` (no-op for a ``None`` token)."""

    if previous is None:
        return
    if threading.current_thread() is not threading.main_thread():
        return
    signal.signal(signal.SIGINT, previous)
