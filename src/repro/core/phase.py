"""Tick phase tracking and enforcement of the state-effect pattern.

The engines wrap the query and update phases in the :func:`phase` context
manager; the field hooks (:mod:`repro.core.fields`) read the calling
thread's phase to enforce the read/write rules of the state-effect pattern:

=============  ===========================  ===========================
Phase          state fields                 effect fields
=============  ===========================  ===========================
IDLE (setup)   read/write                   read/write
QUERY          read-only                    write-only (aggregated)
UPDATE         read, write own              read-only
=============  ===========================  ===========================

Enforcement can be switched off globally (``set_enforcement(False)``) for
benchmark runs where the per-access check is measurable overhead; tests and
examples keep it on.
"""

from __future__ import annotations

import enum
import threading
from contextlib import contextmanager


class Phase(enum.Enum):
    """The three access-control regimes of the state-effect pattern."""

    IDLE = "idle"
    QUERY = "query"
    UPDATE = "update"


class _PhaseState(threading.local):
    """Per-thread current phase.

    Thread-local (not global) so the thread executor can run several
    workers' query or update phases concurrently: each pool thread enters
    and leaves its own phase without disturbing the others.  New threads
    start IDLE; the phase is entered inside the task they run.
    """

    def __init__(self):
        self.phase = Phase.IDLE


_state = _PhaseState()
_enforcement: bool = True


def current_phase() -> Phase:
    """Return the phase the calling thread is currently executing."""
    return _state.phase


def enforcement_enabled() -> bool:
    """Return True when phase rules are being enforced on field access."""
    return _enforcement


def set_enforcement(enabled: bool) -> None:
    """Enable or disable phase-rule enforcement globally."""
    global _enforcement
    _enforcement = bool(enabled)


@contextmanager
def phase(new_phase: Phase):
    """Execute a block under the given phase, restoring the previous one after."""
    previous = _state.phase
    _state.phase = new_phase
    try:
        yield
    finally:
        _state.phase = previous
