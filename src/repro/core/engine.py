"""The sequential reference engine.

This engine runs the state-effect tick loop on a single Python process with
no partitioning, replication or distribution.  It is the semantic ground
truth: the BRACE runtime, regardless of worker count or optimizations, must
produce exactly the same agent states after every tick (see the equivalence
tests in ``tests/brace/``).

It also doubles as the single-node performance subject of Figures 3 and 4 —
the ``spatial_backend`` argument switches between the quadratic nested-loop
join (``"python"``) and the columnar grid (``"vectorized"``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.agent import _set_updating
from repro.core.context import QueryContext, UpdateContext
from repro.core.phase import Phase, phase
from repro.core.world import World


@dataclass
class TickStatistics:
    """Measurements for one simulated tick."""

    tick: int
    num_agents: int
    query_seconds: float
    update_seconds: float
    total_seconds: float
    work_units: int
    index_probes: int
    spawned: int = 0
    killed: int = 0

    @property
    def agent_ticks(self) -> int:
        """Number of agent-ticks processed (the paper's throughput unit)."""
        return self.num_agents


@dataclass
class RunStatistics:
    """Aggregated measurements for a multi-tick run."""

    ticks: list[TickStatistics] = field(default_factory=list)

    def add(self, tick_stats: TickStatistics) -> None:
        """Append the statistics of one tick."""
        self.ticks.append(tick_stats)

    @property
    def total_seconds(self) -> float:
        """Total wall-clock time across every recorded tick."""
        return sum(t.total_seconds for t in self.ticks)

    @property
    def total_agent_ticks(self) -> int:
        """Total number of agent-ticks processed."""
        return sum(t.agent_ticks for t in self.ticks)

    @property
    def total_work_units(self) -> int:
        """Total abstract work units (candidate evaluations) performed."""
        return sum(t.work_units for t in self.ticks)

    def throughput(self) -> float:
        """Agent-ticks per second of wall-clock time."""
        seconds = self.total_seconds
        if seconds == 0:
            return 0.0
        return self.total_agent_ticks / seconds

    def discard_warmup(self, warmup_ticks: int) -> "RunStatistics":
        """Return statistics with the first ``warmup_ticks`` ticks removed.

        The paper eliminates start-up transients "by discarding initial ticks
        until a stable tick rate is achieved".
        """
        trimmed = RunStatistics()
        trimmed.ticks = self.ticks[warmup_ticks:]
        return trimmed


class SequentialEngine:
    """Single-process reference implementation of the tick loop.

    Parameters
    ----------
    world:
        The :class:`~repro.core.world.World` to simulate (mutated in place).
    check_visibility:
        Forwarded to the query context; disable only for benchmarks.
    spatial_backend:
        ``"vectorized"`` (the columnar grid, the default) or ``"python"``
        (a linear scan per probe, the nested-loop join) — how the query
        phase's spatial joins execute; states are bit-identical either way.
    on_tick_end:
        Optional callback ``f(world, tick_statistics)`` invoked after every tick.
    """

    def __init__(
        self,
        world: World,
        check_visibility: bool = True,
        spatial_backend: str = "vectorized",
        on_tick_end: Callable[[World, TickStatistics], None] | None = None,
    ):
        self.world = world
        self.check_visibility = check_visibility
        self.spatial_backend = spatial_backend
        self.on_tick_end = on_tick_end
        self.statistics = RunStatistics()

    # ------------------------------------------------------------------
    # Tick execution
    # ------------------------------------------------------------------
    def run_tick(self) -> TickStatistics:
        """Execute one tick (query phase, update phase, births/deaths)."""
        world = self.world
        agents = world.agents()
        tick_start = time.perf_counter()

        for agent in agents:
            agent.reset_effects()

        query_context = QueryContext(
            agents,
            tick=world.tick,
            seed=world.seed,
            check_visibility=self.check_visibility,
            spatial_backend=self.spatial_backend,
        )
        query_start = time.perf_counter()
        with phase(Phase.QUERY):
            for agent in agents:
                agent.query(query_context)
        query_seconds = time.perf_counter() - query_start

        update_context = UpdateContext(
            tick=world.tick, seed=world.seed, world_bounds=world.bounds
        )
        update_start = time.perf_counter()
        with phase(Phase.UPDATE):
            for agent in agents:
                _set_updating(agent, True)
                try:
                    agent.update(update_context)
                finally:
                    _set_updating(agent, False)
        update_seconds = time.perf_counter() - update_start

        spawned_agents, killed_ids = apply_births_and_deaths(world, update_context)
        spawned, killed = len(spawned_agents), len(killed_ids)
        world.tick += 1

        total_seconds = time.perf_counter() - tick_start
        tick_stats = TickStatistics(
            tick=world.tick - 1,
            num_agents=len(agents),
            query_seconds=query_seconds,
            update_seconds=update_seconds,
            total_seconds=total_seconds,
            work_units=query_context.work_units,
            index_probes=query_context.index_probes,
            spawned=spawned,
            killed=killed,
        )
        self.statistics.add(tick_stats)
        if self.on_tick_end is not None:
            self.on_tick_end(world, tick_stats)
        return tick_stats

    def run(self, ticks: int) -> RunStatistics:
        """Execute ``ticks`` ticks and return the accumulated statistics."""
        for _ in range(ticks):
            self.run_tick()
        return self.statistics


def apply_births_and_deaths(
    world: World, update_context: UpdateContext
) -> tuple[list[Any], list[Any]]:
    """Apply the spawn/kill requests collected during an update phase.

    Requests are applied in a deterministic order (kills first, then spawns
    sorted by ``(parent id, per-parent sequence)``) so that a sequential run
    and a distributed run allocate identical ids to identical children.
    Returns ``(spawned agents, killed agent ids)``.
    """
    killed_ids: list[Any] = []
    for agent_id in sorted(update_context.kill_requests, key=repr):
        if world.has_agent(agent_id):
            world.remove_agent(agent_id)
            killed_ids.append(agent_id)

    spawn_requests = sorted(
        update_context.spawn_requests, key=lambda request: (repr(request[0]), request[1])
    )
    new_ids = world.allocate_ids(len(spawn_requests))
    spawned_agents: list[Any] = []
    for (parent_id, sequence, child), new_id in zip(spawn_requests, new_ids):
        child.agent_id = new_id
        world.add_agent(child)
        spawned_agents.append(child)
    return spawned_agents, killed_ids
