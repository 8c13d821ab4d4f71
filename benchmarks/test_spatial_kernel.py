"""Benchmark: the columnar grid vs the linear-scan oracle.

Processing one tick *is* a spatial self-join, so this is the repository's
hottest path.  The benchmark times the fish neighbour query — every agent
asking for its neighbours within the Couzin attraction radius — through
:class:`~repro.core.context.QueryContext` on both spatial backends:

* ``python`` — the oracle: a linear scan of the extent per agent, with
  Python distance tests (quadratic, so timed at a size it can afford);
* ``vectorized`` — one columnar :class:`~repro.spatial.columnar.PointSet`
  snapshot per tick, all probes answered by the batched grid kernel.

Both backends return bit-identical neighbour lists (asserted here); only
the speed differs.  The smoke configuration runs on every CI push, writes
``BENCH_spatial.json`` and fails whenever the grid's lead over the scan
falls below ``MIN_SMOKE_SPEEDUP`` — the perf-regression guard.
"""

import time

from benchmarks._bench_io import write_bench
from repro.core.context import QueryContext
from repro.simulations.fish import build_fish_world

SEED = 1
#: The query radius: the default Couzin attraction radius rho.
RADIUS = 6.0
#: Agents in the smoke world: the scan's quadratic join takes about half a
#: second here.
SMOKE_AGENTS = 500
#: Wall-clock floor per timing sample; best-of keeps CI noise down.
TIMING_ROUNDS = 2
#: The smoke row's regression bar: the grid wins by about 110x at
#: ``SMOKE_AGENTS`` on a 2-vCPU Xeon, so a 20x floor leaves room for a noisy
#: runner yet fails once the batch path loses most of its lead.
MIN_SMOKE_SPEEDUP = 20.0


def join_seconds(agents, backend):
    """Best-of wall-clock seconds for the full neighbour join on ``backend``."""
    best = float("inf")
    matches = None
    for _ in range(TIMING_ROUNDS):
        context = QueryContext(agents, tick=0, seed=SEED, spatial_backend=backend)
        start = time.perf_counter()
        round_matches = [context.neighbors(agent, RADIUS) for agent in agents]
        best = min(best, time.perf_counter() - start)
        matches = round_matches
    return best, matches


def run_comparison(num_agents):
    """Time both backends on the same world; assert identical results."""
    world = build_fish_world(num_agents, seed=SEED)
    agents = world.agents()
    python_seconds, python_matches = join_seconds(agents, "python")
    vectorized_seconds, vectorized_matches = join_seconds(agents, "vectorized")
    for python_list, vectorized_list in zip(python_matches, vectorized_matches):
        assert [a.agent_id for a in python_list] == [a.agent_id for a in vectorized_list]
    return {
        "agents": num_agents,
        "radius": RADIUS,
        "python_seconds": python_seconds,
        "vectorized_seconds": vectorized_seconds,
        "python_joins_per_sec": num_agents / python_seconds,
        "vectorized_joins_per_sec": num_agents / vectorized_seconds,
        "speedup": python_seconds / vectorized_seconds,
    }


def write_results(rows):
    """Persist the measurements for the CI perf-regression job to archive."""
    write_bench("spatial", rows)


class TestSpatialKernelSmoke:
    """Tiny configuration: runs on every push, guards against regressions."""

    def test_vectorized_not_slower_and_identical(self, once):
        row = once(run_comparison, SMOKE_AGENTS)
        write_results([row])
        assert row["speedup"] >= MIN_SMOKE_SPEEDUP, (
            f"the grid leads the scan by only {row['speedup']:.1f}x at "
            f"{SMOKE_AGENTS} agents (floor {MIN_SMOKE_SPEEDUP:.0f}x): "
            f"scan {row['python_seconds']:.3f}s, grid {row['vectorized_seconds']:.4f}s"
        )
