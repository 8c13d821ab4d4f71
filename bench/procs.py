"""Leave no process behind.

The process backend's shard hosts probe shared memory on their own, and on
CPython < 3.13 that probe starts a ``multiprocessing.resource_tracker`` —
one per host when the driver has none yet.  Such a tracker is a grandchild
of the benchmark: it outlives its host by a moment, is handed to init, and
is still there (running, then a zombie) after the benchmark has exited.

:func:`adopt` is called before anything is measured: it starts the driver's
own tracker, which forked hosts inherit instead of starting theirs — the
one tracker shared by driver and hosts that ``repro.ipc.transport``
describes — and makes this process the reaper of every orphaned descendant.
:func:`stop_all` is called on every path out: it ends whatever a failed run
left alive, stops the tracker, and waits until each process has ended.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time
from multiprocessing import resource_tracker

_PR_SET_CHILD_SUBREAPER = 36


def adopt() -> None:
    """Become the parent of last resort, and the owner of the one tracker."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):  # not Linux: orphans go to init as before
        pass
    resource_tracker.ensure_running()


def _descendants() -> list[int]:
    """Every live or zombie process below this one, from ``/proc``."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as stat:
                # pid (comm) state ppid ...; comm may contain spaces and ')'
                fields = stat.read().rpartition(b")")[2].split()
        except OSError:  # gone between listdir and open
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    found, frontier = [], [os.getpid()]
    while frontier:
        below = children.get(frontier.pop(), [])
        found.extend(below)
        frontier.extend(below)
    return found


def _reap() -> None:
    """Collect every child that has already ended."""
    try:
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass
    except ChildProcessError:  # no children at all
        pass


def _signal(pids: list[int], signum: int) -> None:
    for pid in pids:
        try:
            os.kill(pid, signum)
        except ProcessLookupError:
            pass


def stop_all(grace: float = 5.0) -> None:
    """End every descendant and wait for it; the tracker goes last."""
    tracker = resource_tracker._resource_tracker
    tracker_pid = getattr(tracker, "_pid", None)

    def others() -> list[int]:
        _reap()
        return [pid for pid in _descendants() if pid != tracker_pid]

    # A clean run has closed its session and finds nothing here.
    for signum in (signal.SIGTERM, signal.SIGKILL):
        _signal(others(), signum)
        deadline = time.monotonic() + grace
        while others() and time.monotonic() < deadline:
            time.sleep(0.01)
    # Closing its pipe ends the tracker; no host is left to hold the other end.
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()
    deadline = time.monotonic() + grace
    while _descendants() and time.monotonic() < deadline:
        _reap()
        time.sleep(0.01)
