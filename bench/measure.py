"""Drive one workload in this process and measure it.

Closed loop, one driver, one session: set up (build -> enter -> warm-up
ticks), then one ``session.stream(T)`` whose yielded events are timestamped
— sample *i* is the time between event *i-1* and event *i*.  Never a loop
of ``session.run(1)``: every ``run()`` ends in ``sync_world()``, which on
resident backends pulls the whole world per call.

An untraced run installs no wrapper at all.  A traced run wraps the layer
boundaries on every other tick of the same window and leaves the ticks in
between untouched, so the overhead of tracing is measured against the same
stretch of the same simulation.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.api import Simulation
from repro.history import History

from bench.digest import agents_digest
from bench.layers import (
    TracedWindow,
    layer_metrics,
    layer_table,
    setup_targets,
    tick_targets,
)
from bench.trace import Tracer
from bench.workloads import WARMUP_TICKS, Workload

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
GOLDEN_PATH = BENCH_DIR / "golden.json"

#: Set-ups per run; ``setup_s`` is their median (process spawn is noisy).
SETUP_REPEATS = 3
#: The live oracle: small enough for the naive reference, large enough for
#: every shard of every workload to own agents and exchange replicas.
ORACLE_AGENTS = 400
ORACLE_TICKS = 6


@dataclass
class Report:
    """Everything one run of one workload produced."""

    workload: str
    seed: int
    agents: int
    ticks: int
    traced: bool
    #: Ticks of the window not completed, or all of them if a state check failed.
    failed: int
    correct: bool
    metrics: dict[str, float]
    #: Per-layer names the driver-side tracer could not observe (reported 0).
    absent: list[str] = field(default_factory=list)
    checks: dict[str, Any] = field(default_factory=dict)
    layer_table: list[dict[str, Any]] = field(default_factory=list)
    samples: list[float] = field(default_factory=list)
    environment: dict[str, Any] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


def environment() -> dict[str, Any]:
    """Where the numbers come from: commit, cores, interpreter, NumPy."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=BENCH_DIR,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # the driver's checkout is not a git repository
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        **golden_stamp(),
    }


def golden_stamp() -> dict[str, str]:
    """Golden digests are only compared on the platform that wrote them."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def scratch_dir(label: str) -> tempfile.TemporaryDirectory:
    """A throw-away directory under ``bench/out`` (history stores live here)."""
    OUT_DIR.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(
        prefix=f"{label}-", dir=OUT_DIR, ignore_cleanup_errors=True
    )


# ----------------------------------------------------------------------
# Set-up and the timed window
# ----------------------------------------------------------------------
def _set_up(workload: Workload, seed: int, agents: int, scratch: Path) -> tuple[Simulation, float]:
    """First call into ``repro`` -> end of warm-up, and how long it took."""
    start = time.perf_counter()
    session = workload.session(seed, agents, scratch)
    try:
        for _ in session.stream(WARMUP_TICKS):
            pass
    except BaseException:
        session.close()
        raise
    return session, time.perf_counter() - start


@dataclass
class _Window:
    samples: list[float] = field(default_factory=list)
    #: Indices of the samples taken with the tracer installed.
    traced: list[int] = field(default_factory=list)
    wall: float = 0.0
    error: str | None = None


def _run_window(session: Simulation, ticks: int, tracer: Tracer | None, targets) -> _Window:
    window = _Window()
    # Epoch boundaries (even epoch length) all fall on window indices of one
    # parity; trace that parity so every boundary span is seen.
    parity = (session.config.ticks_per_epoch - 1 - WARMUP_TICKS) % 2
    start = last = time.perf_counter()
    try:
        if tracer is not None and parity == 0:
            tracer.install(targets)
        for index, _event in enumerate(session.stream(ticks)):
            now = time.perf_counter()
            window.samples.append(now - last)
            last = now
            if tracer is not None:
                if tracer.installed:
                    window.traced.append(index)
                    tracer.uninstall()
                else:
                    tracer.install(targets)
                last = time.perf_counter()  # toggling is not part of a tick
    except Exception:  # noqa: BLE001 - a failed tick is a result, not a crash
        window.error = traceback.format_exc()
    finally:
        if tracer is not None:
            tracer.uninstall()
    window.wall = time.perf_counter() - start
    return window


def _tick_hi(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(seconds, percentile)``; with eleven samples or fewer only the
    minimum qualifies, which the reported percentile makes plain.
    """
    ordered = sorted(samples)
    index = max(0, len(ordered) - 11)
    percentile = 100.0 * index / (len(ordered) - 1) if len(ordered) > 1 else 0.0
    return ordered[index], percentile


def _history_reads(path: Path) -> tuple[dict[str, float], float]:
    """Timed reads of the store just written, and its bytes per tick."""
    history = History.open(path)
    last = history.last_tick
    reads = {}
    start = time.perf_counter()
    final = history.state_at(last)
    reads["state_at_s"] = time.perf_counter() - start
    start = time.perf_counter()
    history.state_at(last - 5)
    reads["state_at_replay_s"] = time.perf_counter() - start
    first_id = min(final)
    start = time.perf_counter()
    history.series(first_id, "speed")
    reads["series_s"] = time.perf_counter() - start
    recorded = max(1, last - history.base_tick)
    return reads, history.store.size_bytes() / recorded


def _peak_rss_mb() -> float:
    """Peak resident set of the driver plus its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # Linux reports KiB


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def run_digest(session: Simulation, ticks: int) -> str:
    """Run ``ticks`` ticks to completion and digest the final states."""
    with session:
        session.run(ticks)
    return agents_digest(session.world.agents())


def oracle_check(workload: Workload, seed: int, scratch: Path) -> dict[str, Any]:
    """Workload configuration vs the naive serial reference on a small world."""
    measured = run_digest(workload.session(seed, ORACLE_AGENTS, scratch), ORACLE_TICKS)
    reference = run_digest(workload.reference(seed, ORACLE_AGENTS, naive=True), ORACLE_TICKS)
    return {
        "agents": ORACLE_AGENTS,
        "ticks": ORACLE_TICKS,
        "digest": measured,
        "reference": reference,
        "ok": measured == reference,
    }


def golden_check(workload: str, seed: int, agents: int, ticks: int, digest: str) -> dict[str, Any]:
    """Compare with the committed digest when one was written for this run."""
    golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    entry = golden.get("digests", {}).get(workload, {}).get(str(seed))
    comparable = (
        entry is not None
        and golden.get("stamp") == golden_stamp()
        and (entry["agents"], entry["ticks"]) == (agents, ticks)
    )
    if not comparable:
        return {"compared": False, "ok": True}
    return {"compared": True, "expected": entry["sha256"], "ok": entry["sha256"] == digest}


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run_workload(
    workload: Workload,
    seed: int,
    *,
    ticks: int | None = None,
    agents: int | None = None,
    setup_repeats: int = SETUP_REPEATS,
    tracer: Tracer | None = None,
) -> Report:
    """Set up, run the window, check the final states, derive the metrics.

    With a ``tracer`` the run is traced and additionally yields the
    per-layer metrics; the caller keeps the spans.
    """
    ticks = workload.ticks if ticks is None else ticks
    agents = workload.agents if agents is None else agents
    with scratch_dir(workload.name) as scratch:
        return _run(workload, seed, ticks, agents, tracer, setup_repeats, Path(scratch))


def _run(
    workload: Workload,
    seed: int,
    ticks: int,
    agents: int,
    tracer: Tracer | None,
    setup_repeats: int,
    scratch: Path,
) -> Report:
    errors: list[str] = []
    setups: list[float] = []
    for repeat in range(setup_repeats - 1):
        session, seconds = _set_up(workload, seed, agents, scratch / f"setup{repeat}")
        session.close()
        setups.append(seconds)

    setup_start = time.perf_counter()
    if tracer is not None:
        tracer.install(setup_targets())
    try:
        session, seconds = _set_up(workload, seed, agents, scratch / "run")
    finally:
        if tracer is not None:
            tracer.uninstall()
    setups.append(seconds)
    window_start = time.perf_counter()

    history_path = scratch / "run" / "history"
    with session:
        executor = session.config.executor
        agent_classes = sorted(
            {type(agent) for agent in session.world.agents()}, key=lambda cls: cls.__name__
        )
        wire_before = session.metrics.total_ipc_bytes()
        epochs_before = len(session.metrics.epochs)
        window = _run_window(session, ticks, tracer, tick_targets(executor, agent_classes))
        completed = len(window.samples)
        if window.error is not None:
            errors.append(window.error)
        wire_bytes = session.metrics.total_ipc_bytes() - wire_before
        tick_stats = session.metrics.ticks[WARMUP_TICKS:]
        epoch_stats = session.metrics.epochs[epochs_before:]
        fault_events = len(session.runtime.fault_events)
    peak_rss = _peak_rss_mb()
    final_agents = session.world.agents()
    digest = agents_digest(final_agents)

    history_reads: dict[str, float] = {}
    store_bytes_per_tick = 0.0
    if history_path.exists():
        history_reads, store_bytes_per_tick = _history_reads(history_path)

    checks = {
        "digest": digest,
        "oracle": oracle_check(workload, seed, scratch / "oracle"),
        "golden": golden_check(workload.name, seed, agents, ticks + WARMUP_TICKS, digest),
    }
    states_ok = checks["oracle"]["ok"] and checks["golden"]["ok"]
    # A failed state check means no tick of this run can be trusted.
    failed = ticks - completed if states_ok else ticks

    samples = window.samples
    metrics = {
        "setup_s": statistics.median(setups),
        "tick_s": statistics.median(samples) if samples else math.nan,
        "agent_ticks_per_s": agents * completed / window.wall if window.wall else 0.0,
        "wire_bytes_per_tick": wire_bytes / max(1, completed),
        "store_bytes_per_tick": store_bytes_per_tick,
        "peak_rss_mb": peak_rss,
        "failed_ticks": float(failed),
    }
    report = Report(
        workload=workload.name,
        seed=seed,
        agents=agents,
        ticks=ticks,
        traced=tracer is not None,
        failed=failed,
        correct=failed == 0,
        metrics=metrics,
        checks=checks,
        samples=samples,
        environment=environment(),
        errors=errors,
    )
    if tracer is not None and samples:
        traced_indices = set(window.traced)
        traced = [s for i, s in enumerate(samples) if i in traced_indices]
        untraced = [s for i, s in enumerate(samples) if i not in traced_indices]
        tick_rows = tracer.layer_rows(since=window_start)
        layer, report.absent = layer_metrics(
            TracedWindow(
                tick_rows=tick_rows,
                setup_rows=tracer.layer_rows(since=setup_start, until=window_start),
                counts=tracer.counters(),
                traced_ticks=len(traced),
                traced_seconds=sum(traced),
                tick_stats=tick_stats,
                epoch_stats=epoch_stats,
                fault_events=fault_events,
                executor=executor,
                final_agents=final_agents,
                history_reads=history_reads,
            )
        )
        metrics.update(layer)
        metrics["api.tick_hi_s"], metrics["api.tick_hi_pct"] = _tick_hi(samples)
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced) / statistics.median(untraced)
            if traced and untraced
            else 1.0
        )
        report.layer_table = layer_table(tick_rows)
    return report
