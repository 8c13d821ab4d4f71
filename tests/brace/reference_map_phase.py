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
"""

import operator

from repro.brace.replication import replication_targets
from repro.brace.worker import DistributionResult, Worker
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
    self._replica_delta_mode = transport_copies
    if transport_copies:
        previous_sent = self._replica_sent
        sent: dict[int, dict] = {}
        additions: dict[int, list] = {}
        is_ = operator.is_
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
        if transport_copies and targets:
            values = tuple(agent._state.values())
            agent_id = agent.agent_id
        for target in targets:
            if target == owner:
                continue
            result.replication_pair_bytes[(owner, target)] += size
            result.replicas_created += 1
            if transport_copies:
                cache = sent.get(target)
                if cache is None:
                    cache = sent[target] = {}
                cache[agent_id] = values
                prev_cache = previous_sent.get(target)
                if prev_cache is not None:
                    prev = prev_cache.get(agent_id)
                    if (
                        prev is not None
                        and len(prev) == len(values)
                        and all(map(is_, prev, values))
                    ):
                        continue  # destination already holds this row
            if transport_copies:
                # Effects were reset above; the wire copies the rest.
                replica = agent
            else:
                replica = agent.clone()
                replica.reset_effects()
            if target == self.worker_id:
                self.install_replica(replica)
            elif transport_copies:
                additions.setdefault(target, []).append(replica)
            else:
                result.replicas_out.setdefault(target, []).append(replica)
    if transport_copies:
        for target in previous_sent.keys() | sent.keys() | additions.keys():
            new_cache = sent.get(target, ())
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
            if added or removed:
                result.replicas_out[target] = ReplicaDelta(added, removed)
        self._replica_sent = sent
    return result


def reference_snapshot(worker: Worker) -> PointSet:
    """The query phase's snapshot as it was: re-sort the extent with a Python
    key, re-read and re-box every position."""
    agents = worker.owned_agents() + worker.replica_agents()
    ordered = sorted(agents, key=lambda agent: agent_sort_key(agent.agent_id))
    return PointSet(ordered, key=lambda agent: agent.position())
