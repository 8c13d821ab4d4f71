"""Spatial distribution and replication of agents (the BRACE map task).

The map task of every tick assigns each agent to the partition owning its
location and replicates it to every other partition whose *visible region*
contains it, so that each reducer can run the query phase of its owned agents
without any further communication (Section 3.2).

Two forms of one rule live here.  :func:`replication_targets` answers for one
agent and is the documented reference (the docs and the oracle tests use
it).  :func:`replication_targets_batch`
answers for a whole shard as column arithmetic and is what the tick runs
(:meth:`repro.brace.worker.Worker.distribute`); the tests hold it to the
scalar form row by row.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.agent import Agent
from repro.core.soa import rows_by_class
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


def replication_targets_batch(
    agents: Sequence[Agent],
    points: np.ndarray,
    owners: np.ndarray,
    partitioning: SpatialPartitioning,
) -> tuple[np.ndarray, dict[int, list[int]], list[int]]:
    """:func:`replication_targets` for a shard: which rows replicate, and where.

    ``points`` and ``owners`` are the agents' positions and owning partitions,
    rows parallel to ``agents``.  Returns ``(replicates, targets, everywhere)``:

    * ``replicates[i]`` — row ``i`` has a target *other than its owner*, i.e.
      the map phase must ship it somewhere.  Interior agents are False and
      cost no Python at all;
    * ``targets[i]`` — for a replicating row of a class with bounded
      visibility, exactly the list the scalar form returns;
    * ``everywhere`` — every partition id: the targets of any replicating
      row *not* in ``targets``.  Visibility is declared per class, so a class
      with unbounded visibility is resolved once: no mask row, no position
      read and no per-row list.

    Every class here has spatial fields (``points`` has a row for each agent;
    :meth:`Worker.add_owned <repro.brace.worker.Worker.add_owned>` refuses
    the rest), so unlike the scalar form there is no "no position" case.
    """
    everywhere = [part.partition_id for part in partitioning.partitions()]
    partition_ids = np.array(everywhere, dtype=np.int64)
    replicates = np.zeros(len(agents), dtype=bool)
    targets: dict[int, list[int]] = {}
    for cls, rows in rows_by_class(agents).items():
        radii = cls.visibility_radii()
        if any(radius is None for radius in radii):
            replicates[rows] = len(everywhere) > 1
            continue
        mask = partitioning.replication_targets_batch(points[rows], radii)
        elsewhere = (mask & (partition_ids != owners[rows, None])).any(axis=1)
        replicates[rows] = elsewhere
        # Row-major nonzero: each boundary row's targets in partition order.
        mask = mask[elsewhere]
        flat = partition_ids[np.nonzero(mask)[1]].tolist()
        stop = np.cumsum(mask.sum(axis=1)).tolist()
        for row, start, end in zip(rows[elsewhere].tolist(), [0] + stop, stop):
            targets[row] = flat[start:end]
    return replicates, targets, everywhere
