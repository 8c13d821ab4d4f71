"""The sequential reference engine: the one deliberately naive oracle.

This engine runs the state-effect tick loop on a single Python process with
no partitioning, replication or distribution, answering every ``visible()``
with a linear scan and every agent's ``query``/``update`` with the
per-agent interpreter.  It is the semantic ground truth: the BRACE runtime,
regardless of worker count, spatial backend, plan backend or executor, must
produce exactly the same agent states after every tick (see the
equivalence tests in ``tests/brace/``).  It shares neither the columnar
grid nor the compiled kernels with the runtime it checks, and it is never
timed: the paper's figures run BRACE (``repro.harness``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.agent import _set_updating
from repro.core.context import QueryContext, UpdateContext
from repro.core.phase import Phase, phase
from repro.core.world import World


@dataclass
class TickStatistics:
    """What one simulated tick did (deterministic; no wall clock)."""

    tick: int
    num_agents: int
    work_units: int
    spawned: int = 0
    killed: int = 0

    @property
    def agent_ticks(self) -> int:
        """Number of agent-ticks processed (the paper's throughput unit)."""
        return self.num_agents


@dataclass
class RunStatistics:
    """Aggregated statistics for a multi-tick run."""

    ticks: list[TickStatistics] = field(default_factory=list)

    def add(self, tick_stats: TickStatistics) -> None:
        """Append the statistics of one tick."""
        self.ticks.append(tick_stats)

    @property
    def total_agent_ticks(self) -> int:
        """Total number of agent-ticks processed."""
        return sum(t.agent_ticks for t in self.ticks)

    @property
    def total_work_units(self) -> int:
        """Total abstract work units (candidate evaluations) performed."""
        return sum(t.work_units for t in self.ticks)


class SequentialEngine:
    """Single-process reference implementation of the tick loop.

    Parameters
    ----------
    world:
        The :class:`~repro.core.world.World` to simulate (mutated in place).
    check_visibility:
        Forwarded to the query context; disable only for benchmarks.

    A caller that wants a per-tick hook loops over :meth:`run_tick`.
    """

    def __init__(self, world: World, check_visibility: bool = True):
        self.world = world
        self.check_visibility = check_visibility
        self.statistics = RunStatistics()

    # ------------------------------------------------------------------
    # Tick execution
    # ------------------------------------------------------------------
    def run_tick(self) -> TickStatistics:
        """Execute one tick (query phase, update phase, births/deaths)."""
        world = self.world
        agents = world.agents()

        for agent in agents:
            agent.reset_effects()

        # Always the linear scan ("python"): the oracle shares no index.
        query_context = QueryContext(
            agents, world.tick, world.seed, self.check_visibility, "python"
        )
        with phase(Phase.QUERY):
            for agent in agents:
                agent.query(query_context)

        update_context = UpdateContext(
            tick=world.tick, seed=world.seed, world_bounds=world.bounds
        )
        with phase(Phase.UPDATE):
            for agent in agents:
                _set_updating(agent, True)
                try:
                    agent.update(update_context)
                finally:
                    _set_updating(agent, False)

        spawned_agents, killed_ids = apply_births_and_deaths(world, update_context)
        world.tick += 1

        tick_stats = TickStatistics(
            tick=world.tick - 1,
            num_agents=len(agents),
            work_units=query_context.work_units,
            spawned=len(spawned_agents),
            killed=len(killed_ids),
        )
        self.statistics.add(tick_stats)
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
