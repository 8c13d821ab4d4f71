"""Executable versions of the formal map/reduce functions of Appendix A.

These jobs run a behavioral simulation tick-by-tick *through the generic
MapReduce engine*, following the formal model literally:

* the map task of tick ``t`` applies the update phase of tick ``t - 1`` and
  replicates each agent to every partition whose visible region contains it
  (Figure 9 / 10, ``map^t``);
* the (first) reduce task executes the query phase for the agents its
  partition owns (``reduce^t_1``);
* with non-local effects, a second reduce pass merges the partially
  aggregated effect values of all replicas of an agent at its owning
  partition (``reduce^t_2``); the identity second map task is elided.

They exist to cross-check the optimized BRACE runtime: both must agree with
the sequential reference engine.  The formal jobs only support fixed
populations (no births/deaths), matching the scope of Appendix A.

The map and reduce functions are small picklable callables (not closures),
so the jobs run unchanged on every executor backend — including the
:class:`~repro.mapreduce.executor.ProcessExecutor`, provided the agent class
itself is picklable (a module-level class, such as the canonical traffic
``Vehicle``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.core.agent import Agent, _set_updating
from repro.core.context import QueryContext, UpdateContext
from repro.core.errors import MapReduceError
from repro.core.phase import Phase, phase
from repro.mapreduce.engine import (
    IterativeMapReduce,
    MapReduceJob,
    MapReduceReduceJob,
)
from repro.mapreduce.executor import Executor
from repro.mapreduce.types import KeyValue
from repro.spatial.partitioning import SpatialPartitioning


def _visibility_for_replication(agent: Agent, partitioning: SpatialPartitioning) -> list[int]:
    """Partitions that must receive a replica of ``agent``."""
    radii = agent.visibility_radii()
    if not radii or any(radius is None for radius in radii):
        # Unbounded visibility: every partition needs the agent.
        return [part.partition_id for part in partitioning.partitions()]
    return partitioning.replication_targets(agent.position(), list(radii))


@dataclass(frozen=True)
class _JobSpec:
    """The picklable context shared by every map/reduce task of a job."""

    partitioning: SpatialPartitioning
    seed: int
    index: str | None
    cell_size: float | None
    check_visibility: bool
    spatial_backend: str | None = None


def _apply_update(agent: Agent, update_tick: int, seed: int) -> None:
    """Run the update phase of ``update_tick`` on one agent (fixed population)."""
    update_context = UpdateContext(tick=update_tick, seed=seed)
    with phase(Phase.UPDATE):
        _set_updating(agent, True)
        try:
            agent.update(update_context)
        finally:
            _set_updating(agent, False)
    if update_context.spawn_requests or update_context.kill_requests:
        raise MapReduceError(
            "the Appendix A simulation jobs do not support births/deaths; "
            "use the BRACE runtime for models with dynamic populations"
        )


def _run_query_phase(
    spec: _JobSpec, partition_id: int, agents: Sequence[Agent], tick: int
) -> list[Agent]:
    """Run the query phase for the agents owned by ``partition_id``."""
    context = QueryContext(
        agents,
        tick=tick,
        seed=spec.seed,
        index=spec.index,
        cell_size=spec.cell_size,
        check_visibility=spec.check_visibility,
        spatial_backend=spec.spatial_backend,
    )
    owned = [
        agent
        for agent in agents
        if spec.partitioning.partition_of(agent.position()) == partition_id
    ]
    with phase(Phase.QUERY):
        for agent in owned:
            agent.query(context)
    return owned


@dataclass(frozen=True)
class _DistributeMap:
    """``map^t``: the update phase of tick ``t - 1`` plus replica distribution."""

    spec: _JobSpec
    tick: int

    def __call__(self, _key: Any, agent: Agent) -> Iterable[tuple[int, Agent]]:
        if self.tick > 0:
            _apply_update(agent, self.tick - 1, self.spec.seed)
        agent.reset_effects()
        return [
            (partition_id, agent.clone())
            for partition_id in _visibility_for_replication(agent, self.spec.partitioning)
        ]


@dataclass(frozen=True)
class _LocalEffectReduce:
    """``reduce^t_1`` of Figure 9: query phase, emitting only owned agents."""

    spec: _JobSpec
    tick: int

    def __call__(self, partition_id: int, agents: list[Agent]):
        owned = _run_query_phase(self.spec, partition_id, agents, self.tick)
        return [(partition_id, agent) for agent in owned]


@dataclass(frozen=True)
class _NonLocalEffectReduce1:
    """``reduce^t_1`` of Figure 10: query phase, routing partials to owners."""

    spec: _JobSpec
    tick: int

    def __call__(self, partition_id: int, agents: list[Agent]):
        _run_query_phase(self.spec, partition_id, agents, self.tick)
        output = []
        for agent in agents:
            owner = self.spec.partitioning.partition_of(agent.position())
            if owner == partition_id or agent.touched_effect_partials():
                # Route the copy (state + partial effects) to its owner.
                output.append((owner, agent))
        return output


@dataclass(frozen=True)
class _NonLocalEffectReduce2:
    """``reduce^t_2`` of Figure 10: merge all partials of an agent at its owner."""

    def __call__(self, partition_id: int, agents: list[Agent]):
        by_oid: dict[Any, list[Agent]] = {}
        for agent in agents:
            by_oid.setdefault(agent.agent_id, []).append(agent)
        output = []
        for agent_id in sorted(by_oid, key=repr):
            copies = by_oid[agent_id]
            base = copies[0].clone()
            base.reset_effects()
            for copy in copies:
                base.merge_effect_partials(copy.touched_effect_partials())
            output.append((partition_id, base))
        return output


class _SimulationJobBase:
    """Shared machinery of the local-effect and non-local-effect jobs."""

    def __init__(
        self,
        partitioning: SpatialPartitioning,
        seed: int = 0,
        index: str | None = "kdtree",
        cell_size: float | None = None,
        check_visibility: bool = True,
        executor: Executor | str | None = None,
        spatial_backend: str | None = None,
    ):
        self.partitioning = partitioning
        self.seed = int(seed)
        self.index = index
        self.cell_size = cell_size
        self.check_visibility = check_visibility
        self.spatial_backend = spatial_backend
        self.engine = IterativeMapReduce(executor=executor)

    @property
    def spec(self) -> _JobSpec:
        """The picklable task context for this job's configuration."""
        return _JobSpec(
            partitioning=self.partitioning,
            seed=self.seed,
            index=self.index,
            cell_size=self.cell_size,
            check_visibility=self.check_visibility,
            spatial_backend=self.spatial_backend,
        )

    # -- shared driver ----------------------------------------------------
    def initial_pairs(self, agents: Iterable[Agent]) -> list[KeyValue]:
        """Wrap the initial agent population as input key-value pairs."""
        return [KeyValue(agent.agent_id, agent.clone()) for agent in agents]

    def run(self, agents: Iterable[Agent], ticks: int) -> list[Agent]:
        """Simulate ``ticks`` ticks and return the final agent states.

        The returned agents are fresh clones sorted by agent id; the input
        agents are never mutated.
        """
        pairs = self.initial_pairs(agents)
        if ticks == 0:
            return sorted((pair.value for pair in pairs), key=lambda a: repr(a.agent_id))
        output = self.engine.run(self.job_for_iteration, pairs, ticks)
        # The last iteration ran query^T but not update^T; apply it now so the
        # result matches ``ticks`` full ticks of the sequential engine.
        finals: dict[Any, Agent] = {}
        for pair in output:
            agent = pair.value
            if agent.agent_id in finals:
                continue
            _apply_update(agent, ticks - 1, self.seed)
            finals[agent.agent_id] = agent
        return [finals[agent_id] for agent_id in sorted(finals, key=repr)]

    def job_for_iteration(self, iteration: int):
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release pooled executor workers, if any."""
        self.engine.engine.shutdown()


class LocalEffectSimulationJob(_SimulationJobBase):
    """Figure 9: simulations whose effect assignments are all local."""

    def job_for_iteration(self, iteration: int) -> MapReduceJob:
        """Build the single-reduce job for tick ``iteration``."""
        spec = self.spec
        return MapReduceJob(
            _DistributeMap(spec, iteration),
            _LocalEffectReduce(spec, iteration),
            name=f"tick-{iteration}",
        )


class NonLocalEffectSimulationJob(_SimulationJobBase):
    """Figure 10: simulations with non-local effect assignments.

    The first reduce computes partial effect aggregates at each partition;
    the second reduce merges all partials of an agent at its owning
    partition.
    """

    def job_for_iteration(self, iteration: int) -> MapReduceReduceJob:
        """Build the map–reduce–reduce job for tick ``iteration``."""
        spec = self.spec
        return MapReduceReduceJob(
            _DistributeMap(spec, iteration),
            _NonLocalEffectReduce1(spec, iteration),
            _NonLocalEffectReduce2(),
            name=f"tick-{iteration}",
        )
