"""Spatial distribution and replication of agents (the BRACE map task).

The map task of every tick assigns each agent to the partition owning its
location and replicates it to every other partition whose *visible region*
contains it, so that each reducer can run the query phase of its owned agents
without any further communication (Section 3.2).
"""

from __future__ import annotations

from repro.core.agent import Agent
from repro.spatial.partitioning import SpatialPartitioning


def replication_targets(agent: Agent, partitioning: SpatialPartitioning) -> list[int]:
    """Every partition whose visible region contains ``agent`` (including its owner).

    Agents with unbounded visibility must be replicated everywhere — the
    degenerate case the neighborhood property exists to avoid.
    """
    radii = agent.visibility_radii()
    if not radii or any(radius is None for radius in radii):
        return [part.partition_id for part in partitioning.partitions()]
    return partitioning.replication_targets(agent.position(), list(radii))
