"""Benchmark: the wire executors ship boundary deltas, not the world.

The collocation argument of the paper, measured for real: on the executors
whose shards live outside the driver's memory — pool processes, or
socket-connected cluster nodes — each tick crosses the wire as the same
three-round columnar delta frames: migrations, boundary replicas and effect
partials.  This benchmark grows the world while holding the partition
*boundary* constant — a strip world whose length scales with the population
at fixed density — and checks that the measured per-tick bytes track the
boundary, not the agent count: quadrupling the population must not grow the
traffic by more than ~10%.

World geometry: agents are spread along the x axis of a ``length x 30`` box
at a constant ~0.5 agents per unit of length, partitioned into 4 strips.
Each strip edge sees a fixed-width visibility band (Boid visibility is 10),
so replicas per tick stay roughly constant as the world grows.

Bit-identity of both executors (including a forced mid-run shard migration
between cluster nodes) is pinned by ``tests/brace/test_executor_equivalence.py``
and ``tests/brace/test_cluster_equivalence.py``.
"""

import statistics

import numpy as np
import pytest

from benchmarks._bench_io import write_bench
from repro.api import Simulation
from repro.brace.config import BraceConfig
from repro.core.world import World
from repro.harness.common import format_table
from repro.spatial.bbox import BBox

from tests.conftest import Boid

NUM_WORKERS = 4
NUM_NODES = 2
TICKS = 3
SEED = 19
#: Agents per unit of world length: fixed, so boundary population is fixed.
LINEAR_DENSITY = 0.5
#: 4x population growth at fixed density (and so a fixed strip boundary).
SIZES = (150, 600)
#: Wire traffic may grow this much while the world quadruples.
MAX_BYTE_GROWTH = 1.1


def build_strip_world(num_agents: int, seed: int = SEED) -> World:
    """A long thin Boid world whose length grows with the population."""
    length = num_agents / LINEAR_DENSITY
    world = World(bounds=BBox(((0.0, length), (0.0, 30.0))), seed=seed)
    rng = np.random.default_rng(seed)
    slot = length / num_agents
    for index in range(num_agents):
        world.add_agent(
            Boid(
                x=min((index + float(rng.uniform(0.0, 1.0))) * slot, length - 1e-6),
                y=float(rng.uniform(0.0, 30.0)),
                vx=float(rng.uniform(-1.0, 1.0)),
                vy=float(rng.uniform(-1.0, 1.0)),
            )
        )
    return world


def run_wire(executor: str, num_agents: int):
    """Run ``executor`` on the strip world; returns measured per-tick numbers."""
    config = BraceConfig(
        num_workers=NUM_WORKERS,
        ticks_per_epoch=1000,  # no epoch events inside the measurement
        load_balance=False,
        executor=executor,
        max_workers=NUM_NODES,
        heartbeat_interval_seconds=0.1,
    )
    with Simulation.from_agents(build_strip_world(num_agents), config=config) as session:
        session.runtime.run_tick()  # spawn the hosts and seed the shards
        session.run(TICKS)
        ticks = session.metrics.ticks[1:]
        per_tick_bytes = statistics.mean(tick.ipc_bytes_total for tick in ticks)
        boundary = statistics.mean(
            tick.replicas_created + tick.agents_migrated for tick in ticks
        )
    return per_tick_bytes, boundary


@pytest.mark.parametrize("executor", ["process", "cluster"])
def test_wire_bytes_scale_with_boundary_not_world(once, executor):
    def measure():
        rows = []
        for num_agents in SIZES:
            per_tick_bytes, boundary = run_wire(executor, num_agents)
            rows.append(
                {
                    "agents": num_agents,
                    "wire_bytes_per_tick": per_tick_bytes,
                    "boundary": boundary,
                }
            )
        return rows

    rows = once(measure)
    write_bench(executor, rows, ticks=TICKS, workers=NUM_WORKERS, nodes=NUM_NODES)
    print()
    print(
        format_table(
            ["Agents", "Boundary (replicas+migrations)", "Wire bytes/tick"],
            [
                [
                    row["agents"],
                    f"{row['boundary']:.0f}",
                    f"{row['wire_bytes_per_tick']:.0f} B",
                ]
                for row in rows
            ],
            title=f"Per-tick driver<->shard traffic vs world size on {executor!r} "
            f"({NUM_WORKERS} strips, fixed density)",
        )
    )

    small, large = rows
    world_growth = large["agents"] / small["agents"]
    byte_growth = large["wire_bytes_per_tick"] / small["wire_bytes_per_tick"]
    # The boundary barely moves as the world quadruples...
    assert large["boundary"] < 2.0 * small["boundary"]
    # ...and the wire traffic follows the boundary, not the world.
    assert byte_growth < MAX_BYTE_GROWTH, (
        f"{executor} wire bytes grew {byte_growth:.2f}x for "
        f"{world_growth:.0f}x more agents"
    )
