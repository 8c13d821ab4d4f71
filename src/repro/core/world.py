"""The simulation world: the collection of agents plus global configuration."""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.core.agent import Agent
from repro.core.errors import WorldError
from repro.spatial.bbox import BBox


class World:
    """A container of agents with deterministic id allocation.

    Parameters
    ----------
    bounds:
        Optional :class:`BBox` describing the simulated space.  The BRACE
        runtime requires bounds to build its spatial partitioning; the
        sequential engine does not.
    seed:
        Seed for all randomness derived from this world.
    """

    def __init__(self, bounds: BBox | None = None, seed: int = 0):
        self.bounds = bounds
        self.seed = int(seed)
        self.tick = 0
        self._agents: dict[Any, Agent] = {}
        self._next_id = 0

    # ------------------------------------------------------------------
    # Agent management
    # ------------------------------------------------------------------
    def add_agent(self, agent: Agent) -> Agent:
        """Add ``agent`` to the world, allocating an id when it has none."""
        if agent.agent_id is None:
            agent.agent_id = self._allocate_id()
        if agent.agent_id in self._agents:
            raise WorldError(f"duplicate agent id {agent.agent_id}")
        self._agents[agent.agent_id] = agent
        return agent

    def add_agents(self, agents: Iterable[Agent]) -> list[Agent]:
        """Add several agents, returning them."""
        return [self.add_agent(agent) for agent in agents]

    def remove_agent(self, agent_id: Any) -> Agent:
        """Remove and return the agent with ``agent_id``."""
        try:
            return self._agents.pop(agent_id)
        except KeyError:
            raise WorldError(f"unknown agent id {agent_id}") from None

    def get_agent(self, agent_id: Any) -> Agent:
        """Return the agent with ``agent_id``."""
        try:
            return self._agents[agent_id]
        except KeyError:
            raise WorldError(f"unknown agent id {agent_id}") from None

    def has_agent(self, agent_id: Any) -> bool:
        """True when an agent with ``agent_id`` is present."""
        return agent_id in self._agents

    def agents(self) -> list[Agent]:
        """Every agent, sorted by id for deterministic iteration."""
        return [self._agents[agent_id] for agent_id in sorted(self._agents, key=repr)]

    def agent_count(self) -> int:
        """Number of agents currently in the world."""
        return len(self._agents)

    def agent_ids(self) -> list[Any]:
        """Every agent id, sorted."""
        return sorted(self._agents, key=repr)

    def _allocate_id(self) -> int:
        allocated = self._next_id
        self._next_id += 1
        return allocated

    @property
    def next_agent_id(self) -> int:
        """The id the next added agent would receive.

        Part of the world's reproducible identity: checkpoints and the
        persistent tick history record it so a reconstructed world allocates
        the same ids a continued run would have.
        """
        return self._next_id

    def allocate_ids(self, count: int) -> list[int]:
        """Reserve ``count`` fresh ids (used when applying spawn requests)."""
        return [self._allocate_id() for _ in range(count)]

    # ------------------------------------------------------------------
    # Population helpers
    # ------------------------------------------------------------------
    def populate(self, factory: Callable[[int], Agent], count: int) -> list[Agent]:
        """Create ``count`` agents with ``factory(index)`` and add them."""
        return self.add_agents(factory(index) for index in range(count))

    def clear(self) -> None:
        """Remove every agent (id allocation is not reset)."""
        self._agents.clear()

    def rewind(self, tick: int, next_id: int, seed: int, agents: Iterable[Agent]) -> None:
        """Put the world back at ``tick`` with exactly ``agents``, the id
        counter at ``next_id`` and ``seed`` (a checkpoint's restore)."""
        self.tick = tick
        self._next_id = next_id
        self.seed = seed
        self._agents = {agent.agent_id: agent for agent in agents}

    def copy(self) -> "World":
        """An independent deep copy of the world (same seed and tick)."""
        duplicate = World(bounds=self.bounds)
        duplicate.rewind(
            self.tick, self._next_id, self.seed, (agent.clone() for agent in self.agents())
        )
        return duplicate

    def same_state_as(self, other: "World") -> bool:
        """True when both worlds hold the same agents with exactly the same state."""
        if self.agent_ids() != other.agent_ids():
            return False
        return all(
            self.get_agent(agent_id).same_state_as(other.get_agent(agent_id))
            for agent_id in self.agent_ids()
        )

    def __repr__(self) -> str:
        return f"<World tick={self.tick} agents={len(self._agents)}>"
