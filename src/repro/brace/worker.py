"""A BRACE worker: one node's share of the simulation.

A worker owns the agents whose positions fall inside its partition, hosts
read-only replicas of agents from neighbouring partitions, and executes the
query phase (reduce 1), the non-local effect aggregation (reduce 2) and the
update phase (the next tick's map task) for its owned set.

Collocation is implicit in this design: the map and reduce tasks of a
partition live inside the same worker object, so agents that stay in their
partition never touch the (simulated) network — only replicas and effect
partials do.

Every worker runs as a *shard* hosted by the executor (:mod:`repro.brace.
shards`): in the driver's process on the serial and thread backends, on a
node process (forked, or dialed in) otherwise.  The code here is the same
either way.  What a worker knows about its run — the seed, the backends,
the world box and whether its host's transport copies what it hands out —
is one :class:`ShardSettings`, fixed when the shard is seeded.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from operator import attrgetter, is_, is_not
from typing import Any, Callable, Iterable

import numpy as np

from repro.brace.replication import replication_targets_batch
from repro.brasil import kernels
from repro.core.agent import Agent, _set_updating, mutable_cells
from repro.core.context import QueryContext, UpdateContext
from repro.core.errors import BraceError
from repro.core.fields import raw_effect_writes
from repro.core.ordering import agent_sort_key
from repro.core.phase import Phase, phase
from repro.core.soa import pack_positions
from repro.ipc.frames import (
    LazyAgentFrame,
    ReplicaDelta,
    refresh_replicas,
    state_field_names,
)
from repro.ipc.sizing import agent_frame_bytes
from repro.spatial.bbox import BBox
from repro.spatial.columnar import PointSet
from repro.spatial.partitioning import Partition, SpatialPartitioning


def _query_loop(
    owned: list[Agent],
    context: QueryContext,
    plan_backend: str,
    keep: Callable[[kernels.EffectHandoff], None] | None = None,
) -> None:
    """Run the query phase body: compiled plan kernels when allowed, else
    the interpreted per-agent loop.

    ``"interpreted"`` never compiles; ``"compiled"`` runs the columnar
    kernels wherever the plan compiler proved one and the interpreter
    elsewhere.  A compiled phase writes the owned agents' effects onto them
    unless ``keep`` takes the :class:`~repro.brasil.kernels.EffectHandoff`
    instead — a caller that passes ``keep`` hands the hand-off on to
    :func:`_update_loop`.
    """
    if plan_backend != "interpreted" and kernels.try_compiled_query_phase(owned, context, keep):
        return
    for agent in owned:
        agent.query(context)


def _update_loop(
    owned: list[Agent],
    context: UpdateContext,
    plan_backend: str,
    handoff: kernels.EffectHandoff | None = None,
) -> None:
    """Run the update phase body: compiled per-class kernels, interpreted
    rest.  ``handoff`` is the query phase's, for ``owned``; whatever does
    not read it gets its effects materialized onto the agents first."""
    remaining = owned
    if plan_backend != "interpreted":
        remaining = kernels.try_compiled_update_phase(owned, context, handoff)
    elif handoff is not None:
        handoff.materialize()
    for agent in remaining:
        _set_updating(agent, True)
        try:
            agent.update(context)
        finally:
            _set_updating(agent, False)


#: An empty send cache (never written).
_NO_ROWS: dict = {}

#: ``n -> (0, ..., n - 1)``: the cells of a row that changed in every cell.
_ALL_CELLS: dict[int, tuple] = {}


def _row_delta(prev: tuple | None, state: dict, names: tuple) -> tuple:
    """``(row sent, what to ship)`` for a ``_state`` whose cells are not all
    the very objects of the row ``prev`` last sent (None: nothing sent).

    A row, as the send history keeps it, is ``(values, layout, mutable)``:
    the state values in ``_state`` order; the class's declared field names
    ``names`` when ``state`` holds exactly those keys in that order (None
    otherwise); and the positions of the values that can change in place
    (:func:`~repro.core.agent.mutable_cells`).  What to ship is True — the
    whole row — unless both rows share one declared layout, so that
    positions name the same fields in both; then it is the positions of the
    cells that are not the very objects sent, plus the mutable ones.
    """
    values = tuple(state.values())
    layout = names if tuple(state) == names else None
    if prev is None or layout is None or prev[1] is not layout:
        return (values, layout, mutable_cells(values)), True
    old = prev[0]
    every = _ALL_CELLS.get(len(values))
    if every is None:
        every = _ALL_CELLS[len(values)] = tuple(range(len(values)))
    if not any(map(is_, old, values)):
        return (values, layout, mutable_cells(values)), every
    cells = tuple(compress(every, map(is_not, old, values)))
    if prev[2] or 2 * len(cells) > len(values):
        mutable = mutable_cells(values)
    else:
        # Nothing sent was mutable, and a cell that is still the object
        # sent is as mutable as it was then: only the rewritten ones need a
        # look (the cheaper scan when few cells changed).
        mutable = mutable_cells(values, cells)
    if mutable:
        cells = tuple(sorted(set(cells).union(mutable)))
    return (values, layout, mutable), cells


class _SortedAgents:
    """Agents in canonical (:func:`agent_sort_key`) order, as a small table.

    Three parallel sequences — the agents, the sort keys that ordered them
    (computed once per residency) and, between a harvest and the next update
    phase, their position rows.  Only the methods here rearrange them, and
    always all three at once.  Merges and :meth:`keep` rebind the sequences
    rather than mutate them, so a list handed out earlier stays what it was;
    :meth:`remove` and :meth:`replace` edit one row in place, which is what
    the replica table — whose lists are never handed out — uses them for.
    """

    __slots__ = ("agents", "keys", "points", "_late")

    def __init__(self, agents: Iterable[Agent] = ()):
        self.agents: list[Agent] = []
        self.keys: list[tuple] = []
        #: ``(n, dim)`` positions, rows parallel to ``agents``; None when
        #: not harvested (or stale).
        self.points: np.ndarray | None = None
        self._late: list[Agent] = list(agents)

    def insert(self, agent: Agent) -> None:
        """Add ``agent``; it takes its row at the next :meth:`settle`."""
        self._late.append(agent)

    def settle(self) -> _SortedAgents:
        """Merge the insertions in; returns ``self``, in canonical order."""
        if self._late:
            late, self._late = self._late, []
            self._merge(late, [agent_sort_key(agent.agent_id) for agent in late])
        return self

    def _merge(self, late: list[Agent], late_keys: list[tuple]) -> None:
        """Merge the agents ``late`` (any order) in by their ``late_keys``.

        One sort of the row numbers over the stored keys: Timsort finds the
        already-sorted run and merges the rest into it, no key function
        runs, and ties keep the resident row first.  Position rows, when
        held, are permuted along (the newcomers' are read here).
        """
        agents, keys = self.agents + late, self.keys + late_keys
        order = sorted(range(len(keys)), key=keys.__getitem__)
        if self.points is not None:
            self.points = np.concatenate([self.points, pack_positions(late)])[order]
        self.agents = [agents[row] for row in order]
        self.keys = [keys[row] for row in order]

    def _row_of(self, agent_id: Any) -> int:
        """The settled row holding ``agent_id``, found by its sort key."""
        self.settle()
        key = agent_sort_key(agent_id)
        agents, keys = self.agents, self.keys
        row = bisect_left(keys, key)
        # Distinct ids can share a key (two objects with one ``str``).
        while row < len(keys) and keys[row] == key:
            if agents[row].agent_id == agent_id:
                return row
            row += 1
        raise KeyError(agent_id)

    def remove(self, agent_id: Any) -> None:
        """Drop the row of ``agent_id``, in place (``KeyError`` if absent)."""
        row = self._row_of(agent_id)
        del self.agents[row], self.keys[row]
        if self.points is not None:
            self.points = np.delete(self.points, row, axis=0)

    def replace(self, agent: Agent) -> None:
        """Put ``agent`` into the row of the agent holding its id, in place."""
        row = self._row_of(agent.agent_id)
        self.agents[row] = agent
        if self.points is not None:
            self.points[row] = agent.position()

    def keep(self, mask: np.ndarray) -> None:
        """Drop every row whose ``mask`` entry is False."""
        flags = mask.tolist()
        self.agents = list(compress(self.agents, flags))
        self.keys = list(compress(self.keys, flags))
        if self.points is not None:
            self.points = self.points[mask]

    def harvest(self) -> np.ndarray | None:
        """Read every agent's position into ``points`` (None when empty)."""
        self.points = pack_positions(self.agents) if self.agents else None
        return self.points

    def extent_with(self, other: _SortedAgents) -> tuple[list[Agent], np.ndarray]:
        """This table and ``other`` merged: agents and position rows.

        Neither table changes.  Rows harvested here are reused; ``other``'s
        positions (and everyone's, when nothing was harvested) are read now.
        """
        extent = _SortedAgents()
        extent.agents, extent.keys, extent.points = self.agents, self.keys, self.points
        if other.agents:
            extent._merge(other.agents, other.keys)
        if extent.points is None:
            return extent.agents, pack_positions(extent.agents)
        return extent.agents, extent.points


@dataclass(frozen=True)
class ShardSettings:
    """The run-wide values a resident worker runs with.

    None of them can change during a run, so they travel once, in the
    :class:`~repro.brace.shards.ShardSeed` (and with it in every migration
    and checkpoint stash), instead of in every tick's commands.
    """

    #: The run's effective seed (``BraceConfig.seed`` or the world's).
    seed: int = 0
    check_visibility: bool = True
    spatial_backend: str = "vectorized"
    plan_backend: str = "compiled"
    world_bounds: BBox | None = None
    #: True when the host's transport copies everything that crosses it (a
    #: wire): see :meth:`Worker.distribute`.
    transport_copies: bool = False


@dataclass
class DistributionResult:
    """What one worker's map phase produced for the rest of the cluster.

    The per-tick *delta* a shard hands the driver: agents that
    left the partition, replica snapshots headed for neighbouring
    partitions, and the per-(source, destination) byte accounting the cost
    model charges.  Everything scales with boundary activity, never with the
    worker's owned-set size.
    """

    #: ``destination worker -> agents that migrated there``.
    migrations_out: dict[int, list[Agent]] = field(default_factory=dict)
    #: ``destination worker -> replica clones to install there``.
    replicas_out: dict[int, list[Agent]] = field(default_factory=dict)
    #: Modeled bytes per ``(source, destination)`` pair for migrations.
    migration_pair_bytes: Counter = field(default_factory=Counter)
    #: Modeled bytes per ``(source, destination)`` pair for replication.
    replication_pair_bytes: Counter = field(default_factory=Counter)
    agents_migrated: int = 0
    replicas_created: int = 0


class Worker:
    """Per-node execution state.

    A worker lives inside its executor host across ticks.  It remembers the
    whole :class:`~repro.spatial.partitioning.SpatialPartitioning` (set via
    :meth:`adopt_partitioning` or the shard seed) so it can compute
    migrations and replication targets locally, and its ``replicas`` dict
    is the replica cache the query phase joins against.  ``settings`` are
    the run-wide values its phases run with.  The driver keeps no
    ``Worker``: its ownership record is an agent id -> shard map.
    """

    def __init__(
        self,
        worker_id: int,
        partition: Partition,
        partitioning: SpatialPartitioning | None = None,
        settings: ShardSettings = ShardSettings(),
    ):
        self.worker_id = worker_id
        self.partition = partition
        #: Full partitioning, needed to route migrations and replicas locally.
        self.partitioning = partitioning
        self.settings = settings
        self.owned: dict[Any, Agent] = {}
        self.replicas: dict[Any, Agent] = {}
        self.last_query_work_units = 0.0
        #: The columnar snapshot served to the last vectorized query phase.
        self.last_snapshot: PointSet | None = None
        #: The owned set in canonical order.  Between a map phase and the
        #: next update phase it also holds the position rows, harvested once
        #: by :meth:`distribute` and handed to the query phase's snapshot
        #: (the tick's one-snapshot contract; positions only change in the
        #: update phase).  Arrivals are merged in; any other ownership change
        #: drops the table (None) and the next reader rebuilds it.
        self._owned_table: _SortedAgents | None = None
        #: The hosted replicas in canonical order, edited row by row as
        #: replicas come and go; dropped (None) only with all of them.
        self._replica_table: _SortedAgents | None = None
        #: Delta-mode bookkeeping: ``destination -> {agent_id: row sent}``, a
        #: row being ``(state values tuple, declared field names or None,
        #: mutable cell positions)``.  Compared by object identity next tick
        #: to decide which cells actually need reshipping.
        self._replica_sent: dict[int, dict] = {}
        #: Shard-local checkpoint stash: ``tag -> state image``, the same
        #: bytes the driver's checkpoint keeps for this shard
        #: (:func:`~repro.brace.shards.shard_capture`), so a *surviving*
        #: resident shard can rewind itself in place after another node
        #: dies.  Encoded at capture time — later mutation of the live
        #: agents cannot reach a stashed image.
        self.checkpoint_stash: dict = {}
        #: The compiled query kernel's effects for the owned agents, held
        #: from the query round to the update round of one tick (the owned
        #: objects keep identity effects meanwhile); None otherwise.
        self._effect_handoff: kernels.EffectHandoff | None = None
        #: :func:`~repro.core.fields.raw_effect_writes` when the last map
        #: phase reset effects; None before the first one.
        self._raw_writes_seen: int | None = None

    # ------------------------------------------------------------------
    # Ownership management
    # ------------------------------------------------------------------
    def add_owned(self, agent: Agent) -> None:
        """Take ownership of ``agent``; its effects start at identity.

        BRACE places agents by position: a class without spatial fields has
        no owner to compute and is refused.
        """
        if not agent._spatial_fields:
            raise BraceError(
                f"worker {self.worker_id} cannot own {type(agent).__name__} "
                f"agent {agent.agent_id}: the class declares no spatial field"
            )
        # An arrival (seed, spawn, migration, repartition, checkpoint
        # rebuild) may carry any accumulator; see _reset_effects.
        if agent._effect_fields or agent._effects_touched:
            agent.reset_effects()
        if agent.agent_id in self.owned:
            self._owned_table = None  # a replaced object: its row is stale
        elif self._owned_table is not None:
            self._owned_table.insert(agent)
        self.owned[agent.agent_id] = agent

    def remove_owned(self, agent_id: Any) -> Agent:
        """Release ownership of the agent with ``agent_id`` and return it."""
        self._owned_table = None
        try:
            return self.owned.pop(agent_id)
        except KeyError:
            raise BraceError(
                f"worker {self.worker_id} does not own agent {agent_id}"
            ) from None

    def _owned_rows(self) -> _SortedAgents:
        """The owned table, rebuilt if dropped, with every arrival merged in."""
        if self._owned_table is None:
            self._owned_table = _SortedAgents(self.owned.values())
        return self._owned_table.settle()

    def owned_agents(self) -> list[Agent]:
        """Owned agents sorted by id (deterministic iteration order).

        Uses :func:`~repro.core.ordering.agent_sort_key`, the same total
        order the driver uses to route effect partials, so a shard and the
        driver always enumerate agents identically.  The order is memoized
        between ownership changes — several phases per tick iterate it —
        and agents that arrived since are *merged* into it (their keys are
        the only ones computed, their position rows the only ones packed);
        a fresh list is returned each call so callers can mutate ownership
        while iterating.
        """
        return list(self._owned_rows().agents)

    def owned_count(self) -> int:
        """Number of owned agents."""
        return len(self.owned)

    # ------------------------------------------------------------------
    # Replicas
    # ------------------------------------------------------------------
    def clear_replicas(self) -> None:
        """Drop every replica and the delta-mode send history.

        Called at the start of each full-reship tick, and on any ownership
        upheaval (rebalance, recovery) where retained replicas or the send
        history could go stale — clearing both forces a full resend.
        """
        self.replicas.clear()
        self._replica_table = None
        self._replica_sent = {}

    def discard_replica(self, agent_id: Any) -> None:
        """Drop one hosted replica, if present (delta-mode removals)."""
        if self.replicas.pop(agent_id, None) is not None and self._replica_table is not None:
            self._replica_table.remove(agent_id)

    def install_replica(self, replica: Agent) -> None:
        """Host an already-cloned replica (shipped from another shard).

        A replica replacing one held under the same id takes over its row of
        the replica table; a new one is merged in at the next read.
        """
        table = self._replica_table
        if table is not None:
            if replica.agent_id in self.replicas:
                table.replace(replica)
            else:
                table.insert(replica)
        self.replicas[replica.agent_id] = replica

    def apply_replica_deltas(self, deltas: Iterable[ReplicaDelta]) -> None:
        """Bring the hosted replicas up to this tick's incoming deltas.

        The order is the delta contract: every removal first (after a
        rebalance one source's removal and another's addition of the same
        agent can arrive in the same tick), then the effect reset of the
        retained replicas (they carry last tick's assignments; a freshly
        shipped row holds identities), then the refreshes — cells written
        into the replica objects already held, so no agent is built and the
        replica table stays valid — and the additions last.
        """
        for delta in deltas:
            for agent_id in delta.removed_ids:
                self.discard_replica(agent_id)
        for replica in self.replicas.values():
            if replica._effects_touched:
                replica.reset_effects()
        for delta in deltas:
            refresh_replicas(delta.refreshes, self.replicas)
        for delta in deltas:
            additions = delta.additions
            if isinstance(additions, LazyAgentFrame):
                additions = additions.unpack()
            for replica in additions:
                self.install_replica(replica)

    def replica_agents(self) -> list[Agent]:
        """Hosted replicas sorted by id (the table is edited, not rebuilt)."""
        return list(self._replica_rows().agents)

    def _replica_rows(self) -> _SortedAgents:
        """The replica table, rebuilt if dropped, with every arrival merged in."""
        if self._replica_table is None:
            self._replica_table = _SortedAgents(self.replicas.values())
        return self._replica_table.settle()

    # ------------------------------------------------------------------
    # Shard operations (the map phase, computed shard-locally)
    # ------------------------------------------------------------------
    def distribute(self, partitioning: SpatialPartitioning | None = None) -> DistributionResult:
        """Run the tick's map phase locally: reset, migrate out, replicate.

        The phase is one batch over the owned set: positions are harvested
        into a matrix, owners and replication targets are resolved as column
        arithmetic against the partition faces
        (:meth:`~repro.spatial.partitioning.SpatialPartitioning.partition_of_batch`,
        :func:`~repro.brace.replication.replication_targets_batch` — both
        bit-identical to their scalar forms), and Python then visits only the
        *boundary* rows, in canonical order: agents whose position left this
        partition are removed and queued for their new owner; replica clones
        are produced for every partition whose visible region contains the
        agent (on behalf of the agent's *new* owner when it migrated, so the
        byte accounting matches a centralized map phase exactly).  Replicas
        destined for this very partition — an agent that migrated away but
        is still visible here — are installed directly.  An interior agent
        whose effects are at identity costs no Python at all
        (:meth:`_reset_effects`).

        The harvested rows stay with the owned table and become the query
        phase's snapshot (:meth:`run_query_phase`), so positions are read
        once per tick.

        ``settings.transport_copies`` says whether everything handed out is
        copied before anyone mutates the originals.  A wire does exactly that
        (encoding happens in the same shard task, before the query phase
        runs); a by-reference transport does not.  It selects how replicas
        ship:

        * without copies each replica is a fresh ``clone()`` and every
          destination receives its full replica list every tick;
        * with copies the clone is skipped (effects are at identity, so the
          agent itself *is* the replica snapshot) and shipping switches to
          *delta mode*: destinations retain last tick's replicas, and
          ``replicas_out`` carries :class:`~repro.ipc.frames.ReplicaDelta`
          objects in three parts — *additions* (whole rows the destination
          does not hold), *refreshes* (only the changed cells of rows it
          does hold) and *removals*.

        "Changed" is decided cell by cell, by object identity of the state
        values against the row last sent to that destination, never by
        ``==`` (which conflates NaN payloads and signed zeros).  For an
        immutable value this is exact: an untouched cell keeps the very same
        object, and a rewritten one is a new object (the send history holds
        the old one, so its identity cannot be reused).  A mutable value (a
        list appended to, say) changes in place without changing identity;
        such cells — exactly those ``clone()`` deep-copies
        (:func:`~repro.core.agent.mutable_cells`) — are treated as stale and
        shipped every tick.  An unchanged row costs one identity pass and no
        allocation; a row's value tuple and mutable positions are built only
        when it changed.  A row whose ``_state`` keys differ from its class
        declaration (reordered, say) is never refreshed cell by cell: when it
        changes it ships whole, as an addition.

        Deltas save bytes, so they run where bytes exist; by reference the
        bookkeeping would buy nothing.  Modeled byte/replica accounting
        charges every logical replica either way, keeping the cost model
        identical across transports.
        """
        partitioning = partitioning if partitioning is not None else self.partitioning
        if partitioning is None:
            raise BraceError(f"worker {self.worker_id} has no partitioning to distribute with")
        result = DistributionResult()
        self._materialize_effects()  # left over only when an update round failed
        transport_copies = self.settings.transport_copies
        if transport_copies:
            previous_sent = self._replica_sent
            sent: dict[int, dict] = {}
            additions: dict[int, list] = {}
            refreshes: dict[int, dict] = {}
        else:
            self.clear_replicas()
        table = self._owned_rows()
        owned = table.agents
        self._reset_effects(owned)
        owners, replicates, targets_of, everywhere = self._harvest_positions(
            table, partitioning
        )
        migrates = owners != self.worker_id
        if migrates.any():
            # Ownership first, all at once: the migrants leave the dict and
            # their rows leave the table (``owned`` keeps the old rows for
            # the loop below).
            for agent in compress(owned, migrates.tolist()):
                del self.owned[agent.agent_id]
            table.keep(~migrates)
        boundary = np.flatnonzero(migrates | replicates)
        # Per class: agent_frame_bytes (it depends on the class only) and the
        # declared field names.
        classes: dict[type, tuple] = {}
        for row, owner, replicating in zip(
            boundary.tolist(), owners[boundary].tolist(), replicates[boundary].tolist()
        ):
            agent = owned[row]
            cls = type(agent)
            per_class = classes.get(cls)
            if per_class is None:
                per_class = classes[cls] = (agent_frame_bytes(agent), state_field_names(cls))
            size = per_class[0]
            if owner != self.worker_id:
                result.migrations_out.setdefault(owner, []).append(agent)
                result.migration_pair_bytes[(self.worker_id, owner)] += size
                result.agents_migrated += 1
            if not replicating:
                continue
            if not transport_copies:
                for target in targets_of.get(row, everywhere):
                    if target == owner:
                        continue
                    result.replication_pair_bytes[(owner, target)] += size
                    result.replicas_created += 1
                    replica = agent.clone()
                    replica.reset_effects()
                    if target == self.worker_id:
                        self.install_replica(replica)
                    else:
                        result.replicas_out.setdefault(target, []).append(replica)
                continue
            agent_id = agent.agent_id
            state = agent._state
            # Destinations usually share the row last sent: judge each
            # distinct one once.  ``keep`` is the row the destination holds
            # after this tick, ``ship`` what it needs of it (nothing, True:
            # the whole row, else the cell positions to refresh).
            judged = None
            for target in targets_of.get(row, everywhere):
                if target == owner:
                    continue
                result.replication_pair_bytes[(owner, target)] += size
                result.replicas_created += 1
                prev = previous_sent.get(target, _NO_ROWS).get(agent_id)
                if prev is None or prev is not judged:
                    judged = prev
                    if (
                        prev is not None
                        and len(prev[0]) == len(state)
                        and all(map(is_, prev[0], state.values()))
                    ):
                        keep = prev
                        ship = prev[2] and (prev[2] if prev[1] is not None else True)
                    else:
                        keep, ship = _row_delta(prev, state, per_class[1])
                cache = sent.get(target)
                if cache is None:
                    cache = sent[target] = {}
                cache[agent_id] = keep
                if not ship:
                    continue  # the destination already holds this row
                if target == self.worker_id:
                    self.install_replica(agent)
                elif ship is True:
                    additions.setdefault(target, []).append(agent)
                else:
                    groups = refreshes.get(target)
                    if groups is None:
                        groups = refreshes[target] = {}
                    group = groups.get((cls, ship))
                    if group is None:
                        group = groups[(cls, ship)] = ([], [])
                    group[0].append(agent_id)
                    group[1].append(keep[0])
        if transport_copies:
            for target in previous_sent.keys() | sent.keys():
                new_cache = sent.get(target, _NO_ROWS)
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

    def _reset_effects(self, owned: list[Agent]) -> None:
        """Bring every owned agent's effects back to identity, visiting only
        the agents whose effects can differ from it.

        An owned agent's effects can differ from identity only when
        (a) a field is touched: an assignment, a routed merge or
        :meth:`~repro.core.agent.Agent.set_effect_partials` since its reset;
        or (b) an effect write bypassed the query phase anywhere in the
        process since the last map phase (a raw assignment or an
        :meth:`~repro.core.agent.Agent.restore`, which leave no touched
        mark — on a by-reference executor the driver's agents are these).
        Arrivals are reset by :meth:`add_owned`, and nothing else writes an
        owned agent's effects: a compiled class's stay in the hand-off's
        columns.  Under (b) every agent is reset.  Replicas are reset where
        they are made (a clone, below) or retained
        (:meth:`apply_replica_deltas`); in delta mode the agent itself ships,
        already at identity.
        """
        raw_writes = raw_effect_writes()
        if raw_writes != self._raw_writes_seen:
            for agent in owned:
                if agent._effect_fields or agent._effects_touched:
                    agent.reset_effects()
            self._raw_writes_seen = raw_writes
            return
        for agent in compress(owned, map(attrgetter("_effects_touched"), owned)):
            agent.reset_effects()

    def _harvest_positions(
        self, table: _SortedAgents, partitioning: SpatialPartitioning
    ) -> tuple[np.ndarray, np.ndarray, dict[int, list[int]], list[int]]:
        """Pack the owned positions; resolve owners and replication targets.

        The matrix stays with the owned table as its position rows, for the
        query phase's snapshot.  Returns the owner of every row plus what
        :func:`~repro.brace.replication.replication_targets_batch` says
        about them.
        """
        points = table.harvest()
        if points is None:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool), {}, []
        owners = partitioning.partition_of_batch(points)
        return owners, *replication_targets_batch(table.agents, points, owners, partitioning)

    def apply_boundary(self, kill_ids: list[Any], spawn_agents: list[Agent]) -> int:
        """Apply a tick boundary's births and deaths; returns the owned count.

        Mirrors what :func:`~repro.core.engine.apply_births_and_deaths` did
        on the driver's world: killed agents leave the owned set, spawned agents
        (already carrying their driver-assigned ids) join it.
        """
        if kill_ids:
            self._owned_table = None
        for agent_id in kill_ids:
            self.owned.pop(agent_id, None)
        for agent in spawn_agents:
            self.add_owned(agent)
        return self.owned_count()

    def install_owned(self, agents: list[Agent]) -> int:
        """Take ownership of agents shipped from another shard; returns the count."""
        for agent in agents:
            self.add_owned(agent)
        return self.owned_count()

    def adopt_partitioning(
        self, partitioning: SpatialPartitioning, partition: Partition
    ) -> dict[int, list[Agent]]:
        """Adopt a rebalanced partitioning; return agents that must move out.

        The physical half of load balancing: agents whose position now falls
        in another partition are removed here and handed back, keyed by
        their new owner, for the driver to route.
        """
        self.partitioning = partitioning
        self.partition = partition
        # Ownership is reshuffling under the delta protocol's feet: drop
        # retained replicas and the send history so the next map phase
        # reships everything from scratch.
        self.clear_replicas()
        outgoing: dict[int, list[Agent]] = {}
        for agent in self.owned_agents():
            owner = partitioning.partition_of(agent.position())
            if owner != self.worker_id:
                self.remove_owned(agent.agent_id)
                outgoing.setdefault(owner, []).append(agent)
        return outgoing

    def migration_seed(self):
        """The worker's state image before encoding: its seed.

        A checkpoint captures it (:func:`~repro.brace.shards.shard_capture`)
        and the cluster backend calls it (duck-typed) when re-homing a shard
        onto another node: only the partition, the partitioning, the
        settings and the owned agents travel — the exact
        :class:`~repro.brace.shards.ShardSeed` the resident factory rebuilds
        from.  Replica caches and the delta send history stay behind on
        purpose; the driver follows every migration with an
        :meth:`adopt_partitioning` round that clears them on *all* shards,
        so no shard's send history can claim the rebuilt worker still holds
        replica rows it lost in transit.
        """
        from repro.brace.shards import ShardSeed

        self._materialize_effects()
        return ShardSeed(
            partition=self.partition,
            partitioning=self.partitioning,
            agents=self.owned_agents(),
            settings=self.settings,
        )

    def collect_states(self) -> dict[Any, dict[str, Any]]:
        """State of every owned agent, keyed by id (driver sync / checkpoint pull)."""
        return {agent.agent_id: agent.state_dict() for agent in self.owned_agents()}

    def collect_coordinates(self, axis: int) -> list[float]:
        """Owned agents' positions along ``axis`` (load-balancer statistics)."""
        return [agent.position()[axis] for agent in self.owned_agents()]

    # ------------------------------------------------------------------
    # Phase execution
    # ------------------------------------------------------------------
    def run_query_phase(self, tick: int) -> QueryContext:
        """Execute the query phase (reduce 1) for every owned agent.

        With the vectorized backend the context is served the columnar
        snapshot over the extent — owned agents plus replicas, in canonical
        order — assembled from the position rows :meth:`distribute`
        harvested earlier this tick: positions are packed once per tick, not
        once per phase.
        """
        settings = self.settings
        self._materialize_effects()  # a query round's hand-off is its own
        owned, replicas = self.owned_agents(), self.replica_agents()
        context = QueryContext(
            # Not the snapshot's merged order: ``ctx.agents()`` hands this
            # list to user code, and it must not depend on the backend.
            owned + replicas,
            tick=tick,
            seed=settings.seed,
            check_visibility=settings.check_visibility,
            spatial_backend=settings.spatial_backend,
            snapshot=self._build_snapshot(),
        )
        with phase(Phase.QUERY):
            _query_loop(owned, context, settings.plan_backend, self._hold_effects)
        self.last_query_work_units = context.work_units
        return context

    def _build_snapshot(self) -> PointSet | None:
        """The query phase's columnar snapshot (None on the python backend).

        Its rows are the extent in canonical order.  Both tables are already
        sorted, so that is one merge over their stored keys, and the owned
        rows come from the map phase's harvest: only the replicas — rows
        that arrived after it — have their positions read here (everyone's
        when no map phase ran this tick).
        """
        if self.settings.spatial_backend != "vectorized":
            self.last_snapshot = None
            return None
        agents, points = self._owned_rows().extent_with(self._replica_rows())
        self.last_snapshot = PointSet(agents, points=points)
        return self.last_snapshot

    def touched_replica_partials(self) -> dict[Any, dict[str, Any]]:
        """Effect partials assigned to replicas during this tick's query phase.

        These are the non-local effect assignments that must be routed to the
        owning partitions by the second reduce pass.
        """
        return {
            agent_id: replica.touched_effect_partials()
            for agent_id, replica in self.replicas.items()
            if replica._effects_touched
        }

    def _hold_effects(self, handoff: kernels.EffectHandoff) -> None:
        """Keep the query kernel's hand-off for this tick's update phase."""
        self._effect_handoff = handoff

    def _materialize_effects(self) -> None:
        """Write a held hand-off's effects onto the owned agents; drop it."""
        handoff, self._effect_handoff = self._effect_handoff, None
        if handoff is not None:
            handoff.materialize()

    def merge_remote_partials(self, agent_id: Any, partials: dict[str, Any]) -> None:
        """Merge effect partials produced at another partition into an owned agent.

        Into the hand-off's accumulator columns while one is held; on the
        object (after materializing it) when a column cannot take them.
        """
        agent = self.owned.get(agent_id)
        if agent is None:
            raise BraceError(
                f"worker {self.worker_id} received partials for agent {agent_id} it does not own"
            )
        handoff = self._effect_handoff
        if handoff is not None:
            if handoff.merge(agent, partials):
                return
            self._materialize_effects()
        agent.merge_effect_partials(partials)

    def run_update_phase(self, tick: int) -> UpdateContext:
        """Execute the update phase for every owned agent, collecting births/deaths.

        Consumes the query phase's hand-off; a phase that fails leaves its
        effects on the agents, as the interpreter would have.
        """
        settings = self.settings
        # Positions change now: the map phase's position rows are stale.
        self._owned_rows().points = None
        self.last_snapshot = None
        context = UpdateContext(
            tick=tick, seed=settings.seed, world_bounds=settings.world_bounds
        )
        handoff, self._effect_handoff = self._effect_handoff, None
        try:
            with phase(Phase.UPDATE):
                _update_loop(self.owned_agents(), context, settings.plan_backend, handoff)
        except BaseException:
            if handoff is not None:
                handoff.materialize()
            raise
        return context

    def __repr__(self) -> str:
        return (
            f"<Worker {self.worker_id} owned={len(self.owned)} replicas={len(self.replicas)}>"
        )
