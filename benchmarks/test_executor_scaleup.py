"""Benchmark: executor backends on the traffic workload.

Runs the same traffic simulation through every executor backend at several
parallel-slot counts and records the wall-clock speedup curve relative to
the serial baseline — the repo's first *real* (non-virtual-time) parallelism
measurement.

Interpretation notes:

* the thread backend overlaps pure-Python phases but is GIL-bound, so its
  curve stays near 1.0x;
* the process backend pays per-tick serialization of agents, so it only
  wins once per-worker query phases are expensive relative to agent state
  size (and only when real CPUs are available — on a single-CPU container
  the whole table degenerates to overhead accounting, which is still useful
  for tracking the abstraction's cost).

Every configuration must remain *bit-identical* to the serial baseline;
this benchmark asserts that before it reports any timing.
"""

import time

import pytest

from repro.api import Simulation
from repro.brace.config import BraceConfig
from repro.harness.common import format_table
from repro.simulations.traffic.workload import build_traffic_world

TICKS = 3
NUM_VEHICLES = 160
NUM_WORKERS = 4
SEED = 23

CONFIGURATIONS = [
    ("serial", 1),
    ("thread", 2),
    ("thread", 4),
    ("process", 2),
    ("process", 4),
]


def run_backend(executor: str, max_workers: int):
    """One traffic run; returns (world, wall seconds, mean query imbalance)."""
    world = build_traffic_world(seed=SEED, num_vehicles=NUM_VEHICLES)
    config = BraceConfig(
        num_workers=NUM_WORKERS,
        ticks_per_epoch=TICKS,
        check_visibility=False,
        load_balance=False,
        executor=executor,
        max_workers=max_workers,
    )
    with Simulation.from_agents(world, config=config) as session:
        # Warm the pool (and the first tick's caches) outside the timing.
        session.runtime.run_tick()
        start = time.perf_counter()
        session.run(TICKS)
        wall_seconds = time.perf_counter() - start
        imbalance = session.metrics.mean_query_wall_imbalance(skip_ticks=1)
    return world, wall_seconds, imbalance


def run_scaleup():
    """Run every configuration; returns the serial world plus result rows."""
    results = []
    serial_world = None
    serial_seconds = None
    for executor, max_workers in CONFIGURATIONS:
        world, wall_seconds, imbalance = run_backend(executor, max_workers)
        if executor == "serial":
            serial_world = world
            serial_seconds = wall_seconds
        results.append(
            {
                "executor": executor,
                "max_workers": max_workers,
                "wall_seconds": wall_seconds,
                "speedup": serial_seconds / wall_seconds if wall_seconds > 0 else 0.0,
                "query_imbalance": imbalance,
                "world": world,
            }
        )
    return serial_world, results


def _run_tiny(executor: str, max_workers: int):
    world = build_traffic_world(seed=SEED, num_vehicles=40)
    config = BraceConfig(
        num_workers=NUM_WORKERS,
        ticks_per_epoch=2,
        check_visibility=False,
        load_balance=False,
        executor=executor,
        max_workers=max_workers,
    )
    with Simulation.from_agents(world, config=config) as session:
        session.run(2)
    return world


def test_executor_smoke_tiny():
    """Tiny-size smoke: one serial and one process run stay bit-identical."""
    serial_world = _run_tiny("serial", 1)
    process_world = _run_tiny("process", 2)
    assert serial_world.same_state_as(process_world)


@pytest.mark.slow
def test_executor_scaleup(once):
    serial_world, results = once(run_scaleup)

    rows = [
        [
            row["executor"],
            row["max_workers"],
            f"{row['wall_seconds'] * 1000:.1f} ms",
            f"{row['speedup']:.2f}x",
            f"{row['query_imbalance']:.2f}",
        ]
        for row in results
    ]
    print()
    print(
        format_table(
            ["Executor", "Slots", "Wall clock", "Speedup vs serial", "Query imbalance"],
            rows,
            title=(
                f"Executor scale-up: traffic, {NUM_VEHICLES} vehicles, "
                f"{NUM_WORKERS} partitions, {TICKS} timed ticks"
            ),
        )
    )

    # Every backend/worker-count combination ran and was timed.
    assert len(results) == len(CONFIGURATIONS)
    assert all(row["wall_seconds"] > 0.0 for row in results)
    # The parallel backends are *correct*: bit-identical to the serial run.
    for row in results:
        assert serial_world.same_state_as(row["world"]), (
            f"{row['executor']} x{row['max_workers']} diverged from serial"
        )
    # Load accounting is live: imbalance is a finite ratio >= 1.
    assert all(1.0 <= row["query_imbalance"] < float("inf") for row in results)
