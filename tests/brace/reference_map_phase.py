"""The per-agent map phase, kept verbatim as the differential reference.

Until PR 15 ``Worker.distribute`` examined every owned agent in Python:
``partition_of(position())``, ``agent_frame_bytes`` and
``replication_targets`` once per agent, the last one testing the agent
against every partition's visible region.  The tick now resolves owners and
targets as column arithmetic and visits only boundary rows
(``repro.brace.worker``); this module keeps the old loop — and the old
snapshot assembly — exactly as they were, driving a :class:`Worker` through
its public ownership/replica methods, so
``tests/brace/test_map_phase_differential.py`` can hold the batch form to
them field by field.  Reference code: slow on purpose, not to be optimised.

The wire's decision per (agent, destination) follows the three-part delta
contract in its plainest form: every row's values, layout and mutable cells
are rebuilt each time, the identity test runs per destination, and a row the
destination holds ships the positions of its non-identical and mutable
cells.
"""

from repro.brace.replication import replication_targets
from repro.brace.worker import DistributionResult, Worker
from repro.core.agent import _is_immutable
from repro.core.ordering import agent_sort_key
from repro.ipc.frames import ReplicaDelta
from repro.ipc.sizing import agent_frame_bytes
from repro.spatial.columnar import PointSet
from repro.spatial.partitioning import SpatialPartitioning


def reference_distribute(
    worker: Worker, partitioning: SpatialPartitioning, transport_copies: bool = False
) -> DistributionResult:
    """``Worker.distribute`` as it was: one Python iteration per owned agent."""
    self = worker
    result = DistributionResult()
    if transport_copies:
        previous_sent = self._replica_sent
        sent: dict[int, dict] = {}
        additions: dict[int, list] = {}
        refreshes: dict[int, dict] = {}
    else:
        self.clear_replicas()
    for agent in self.owned_agents():
        agent.reset_effects()
    owned = self.owned_agents()
    owners = [partitioning.partition_of(agent.position()) for agent in owned]
    for agent, owner in zip(owned, owners):
        size = agent_frame_bytes(agent)
        if owner != self.worker_id:
            self.remove_owned(agent.agent_id)
            result.migrations_out.setdefault(owner, []).append(agent)
            result.migration_pair_bytes[(self.worker_id, owner)] += size
            result.agents_migrated += 1
        targets = replication_targets(agent, partitioning)
        for target in targets:
            if target == owner:
                continue
            result.replication_pair_bytes[(owner, target)] += size
            result.replicas_created += 1
            if not transport_copies:
                replica = agent.clone()
                replica.reset_effects()
                if target == self.worker_id:
                    self.install_replica(replica)
                else:
                    result.replicas_out.setdefault(target, []).append(replica)
                continue
            prev = previous_sent.get(target, {}).get(agent.agent_id)
            keep, ship = reference_row_delta(agent, prev)
            sent.setdefault(target, {})[agent.agent_id] = keep
            if not ship:
                continue  # destination already holds this row
            if target == self.worker_id:
                self.install_replica(agent)
            elif ship is True:
                additions.setdefault(target, []).append(agent)
            else:
                ids, rows = refreshes.setdefault(target, {}).setdefault(
                    (type(agent), ship), ([], [])
                )
                ids.append(agent.agent_id)
                rows.append(keep[0])
    if transport_copies:
        for target in previous_sent.keys() | sent.keys():
            new_cache = sent.get(target, {})
            removed = [
                agent_id
                for agent_id in previous_sent.get(target, ())
                if agent_id not in new_cache
            ]
            if target == self.worker_id:
                for agent_id in removed:
                    self.discard_replica(agent_id)
                continue
            added = additions.get(target, [])
            refreshed = refreshes.get(target, {})
            if added or removed or refreshed:
                result.replicas_out[target] = ReplicaDelta(added, removed, refreshed)
        self._replica_sent = sent
    return result


def reference_row_delta(agent, prev):
    """``(row the destination holds afterwards, what to ship)`` for one agent.

    A row is ``(values, declared field names or None, mutable positions)``;
    ``ship`` is falsy (nothing), True (the whole row) or the cell positions
    to refresh.
    """
    state = agent._state
    values = tuple(state.values())
    declared = tuple(type(agent)._state_fields)
    layout = declared if tuple(state) == declared else None
    mutable = tuple(i for i, value in enumerate(values) if not _is_immutable(value))
    if prev is not None and len(prev[0]) == len(values) and all(
        old is new for old, new in zip(prev[0], values)
    ):
        if not mutable:
            return prev, None
        return prev, mutable if prev[1] is not None else True
    row = (values, layout, mutable)
    if prev is None or layout is None or prev[1] != layout:
        return row, True
    changed = {i for i, (old, new) in enumerate(zip(prev[0], values)) if old is not new}
    return row, tuple(sorted(changed | set(mutable)))


def reference_snapshot(worker: Worker) -> PointSet:
    """The query phase's snapshot as it was: re-sort the extent with a Python
    key, re-read and re-box every position."""
    agents = worker.owned_agents() + worker.replica_agents()
    ordered = sorted(agents, key=lambda agent: agent_sort_key(agent.agent_id))
    return PointSet(ordered, key=lambda agent: agent.position())
