"""The BRACE runtime: iterated map–reduce–reduce over a simulated cluster.

:class:`BraceRuntime` executes a :class:`~repro.core.world.World` tick by
tick the way the paper's runtime does:

1. **Map / distribution** — each worker migrates agents that left its
   partition and replicates its owned agents to every partition whose
   visible region contains them.  Thanks to collocation, agents that stay
   put never touch the network; only migrations and replicas do.
2. **Reduce 1 / query phase** — each worker joins its owned agents with the
   agents in its partition's visible region (owned + replicas) and runs the
   query phase, accumulating effects locally.
3. **Reduce 2 / effect aggregation** — only when the model performs
   non-local effect assignments: effect partials accumulated on replicas are
   routed to the owning workers and merged with the owners' accumulators.
4. **Update phase** — each worker updates its owned agents; births and
   deaths are collected and applied globally in a deterministic order.

Per-worker compute and communication are measured and converted into virtual
time by the cluster cost model; throughput is reported in agent-ticks per
(virtual) second, the unit used by the paper's scale-up figures.  The agent
*states* produced are identical to a sequential run — this is checked by the
equivalence tests.

There is one tick protocol.  Every worker lives durably inside the executor
as a *shard* (see :mod:`repro.brace.shards`) and a tick is three shard
rounds — map/distribute, query, update — that exchange only *deltas*:
migrations, boundary replicas and effect partials.  The executor's
transport is the only thing that varies, and the runtime reads it off
``executor.shares_memory``:

* **by reference** (serial, thread): shards hold the world's own agent
  objects and payloads are handed over as they are — no copy, no bytes;
  replicas travel as full clones.  A shard may keep its compiled class's
  columns resident, ahead of those objects, and reading
  :attr:`BraceRuntime.world` writes them back first;
* **columnar frames** (process, cluster): the shards live on node processes
  behind the one wire executor (:mod:`repro.cluster.client`); payloads cross
  as :mod:`repro.ipc.frames` frames, replicas travel as per-tick deltas
  against what the destination already holds, and the driver's world is
  synced from the shards on demand (:meth:`BraceRuntime.sync_world`).
  Measured per-tick IPC scales with the partition boundary, not the world.
  A wire is also everything that can lose a node: it alone places and
  migrates shards, keeps a fault log and recovers a lost subset in place.

At epoch boundaries the master may rebalance the partitioning (Figures 7/8)
— physically moving agents between shards — and trigger coordinated
checkpoints: one shard round in which every shard hands over its state
image (:meth:`BraceRuntime.checkpoint`).  :meth:`BraceRuntime.restore` is
the one way back onto the images, after a failure (:meth:`BraceRuntime.
recover`) and on the session layer's pause and resume.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from typing import Any

from repro.brace.checkpoint import Checkpoint, CheckpointManager, FailureInjector
from repro.brace.config import BraceConfig
from repro.brace.master import Master, WorkerReport
from repro.brace.metrics import BraceRunMetrics, BraceTickStatistics, EpochStatistics
from repro.brace.shards import (
    BoundaryDelta,
    MapCommand,
    QueryCommand,
    RepartitionCommand,
    ShardSeed,
    UpdateCommand,
    decode_image,
    make_resident_worker,
    shard_adopt_partitioning,
    shard_apply_boundary,
    shard_capture,
    shard_collect_coordinates,
    shard_collect_states,
    shard_install_owned,
    shard_map_phase,
    shard_materialize,
    shard_query_phase,
    shard_rewind,
    shard_update_phase,
)
from repro.brace.worker import ShardSettings
from repro.cluster.costmodel import (
    MAP_WORK_UNITS_PER_AGENT,
    UPDATE_WORK_UNITS_PER_AGENT,
    ClusterCostModel,
    WorkerTickCost,
)
from repro.cluster.network import NetworkModel
from repro.cluster._simnode import SimulatedNode
from repro.core.context import UpdateContext
from repro.core.engine import apply_births_and_deaths
from repro.core.errors import BraceError, ExecutorError, NodeLossError
from repro.core.ordering import agent_sort_key
from repro.core.world import World
from repro.ipc import agent_frame_bytes, partial_frame_bytes
from repro.mapreduce.executor import make_executor


class BraceRuntime:
    """Distributed (simulated) execution of a behavioral simulation."""

    def __init__(self, world: World, config: BraceConfig | None = None):
        self._world = world
        self.config = config or BraceConfig()
        self.config.validate()
        if world.bounds is None:
            raise BraceError("BRACE requires World.bounds to build its spatial partitioning")
        self.seed = self.config.seed if self.config.seed is not None else world.seed

        self.master = Master(self.config, world.bounds)
        #: One shard per partition; shard ``i`` owns partition ``i``.
        self._shard_ids = range(self.master.partitioning.num_partitions())
        #: Virtual time is priced with the cost models' own constants.
        network = NetworkModel()
        self.cost_model = ClusterCostModel(
            network=network, nodes=[SimulatedNode(shard_id) for shard_id in self._shard_ids]
        )
        self.metrics = BraceRunMetrics()
        #: The driver's one ownership record: agent id -> owning shard, and
        #: how many agents each shard owns.  The agents themselves live in
        #: the world (and, on a wire, in the shards).
        self._rebuild_ownership({agent.agent_id: self._place(agent) for agent in world.agents()})

        #: Execution backend hosting the worker shards.  Its ``shares_memory``
        #: flag is the one transport decision: true hands shard payloads over
        #: by reference, false ships them as columnar frames to node
        #: processes (which can be lost, and between which shards can move).
        #: It is built from the config, so its heartbeat knobs drive
        #: supervision and the *same* network model that prices virtual
        #: time scores the physical shard placement.
        self.executor = make_executor(self.config, network)

        #: Callbacks invoked with each epoch's :class:`EpochStatistics` right
        #: after the epoch boundary completes (load balancing, checkpointing
        #: and IPC accounting included).  The streaming session layer
        #: (:mod:`repro.api`) registers here to surface epoch and checkpoint
        #: events; anything driving :meth:`run_tick` directly may too.
        self.epoch_listeners: list = []
        #: Callbacks invoked as ``listener(world, restored_tick, failed_tick)``
        #: at the end of every successful :meth:`recover`, after the world has
        #: been rewound onto the checkpoint.  The persistent tick history
        #: registers here to truncate its recorded trajectory back to the
        #: restored tick before the re-executed ticks are recorded again.
        self.recovery_listeners: list = []

        self._shards_ready = False
        #: Births/deaths applied driver-side but not yet shipped to shards.
        self._pending_boundary: dict[int, BoundaryDelta] = {}
        #: True when shard-resident states are newer than the driver's world:
        #: after every tick on a wire; by reference, when a shard keeps
        #: resident columns ahead of the world's own agents.
        self._world_dirty = False
        #: Rows each shard materialized during the current tick's rounds and
        #: its epoch boundary (None outside them); see
        #: ``BraceTickStatistics.rows_materialized_per_worker``.
        self._tick_materialized: list[int] | None = None
        #: Checkpoint tags: a shard's stash never answers for another capture.
        self._capture_tags = itertools.count()
        #: Supervision events (node deaths, recoveries) drained from the
        #: executor; the session layer surfaces them on the run result.
        self.fault_events: list[dict] = []
        self._start_epoch()

    @property
    def world(self) -> World:
        """The driver's world.

        By reference the shards hold the world's own agents, and reading
        the world first writes back whatever resident columns ran ahead of
        them (:meth:`sync_world`), so it reads — and a write to an agent
        steers the next tick — exactly as if every tick had written its
        objects.  Free when nothing is resident.  On a wire the world holds
        the states of the last :meth:`sync_world`.
        """
        if self.executor.shares_memory:
            self.sync_world()
        return self._world

    @staticmethod
    def _zero_ipc_phase() -> dict[str, float]:
        return {"serialize": 0.0, "transport": 0.0, "compute": 0.0, "wait": 0.0}

    def _start_epoch(self) -> None:
        """Open a new epoch's accumulators at the world's current tick."""
        self._epoch_ticks = 0
        self._epoch_virtual_seconds = 0.0
        self._epoch_wall_seconds = 0.0
        self._epoch_agent_ticks = 0
        self._epoch_first_tick = self._world.tick
        self._epoch_ipc_phase = self._zero_ipc_phase()

    # ------------------------------------------------------------------
    # Ownership bookkeeping
    # ------------------------------------------------------------------
    @staticmethod
    def _check_placeable(agent: Any) -> None:
        """BRACE places agents by position: refuse a class it cannot place."""
        if not agent._spatial_fields:
            raise BraceError(
                f"BRACE cannot place {type(agent).__name__} agents: the class "
                "declares no spatial field"
            )

    def _place(self, agent: Any) -> int:
        """The shard whose partition holds ``agent``'s position."""
        self._check_placeable(agent)
        return self.master.partitioning.partition_of(agent.position())

    def _own(self, agent_id: Any, owner: int) -> None:
        """Record ``owner`` as the shard owning ``agent_id``."""
        previous = self._owner_of.get(agent_id)
        if previous is not None:
            self._owned_counts[previous] -= 1
        self._owner_of[agent_id] = owner
        self._owned_counts[owner] += 1

    def _rebuild_ownership(self, ownership: dict[Any, int]) -> None:
        """Reset the ownership map to ``ownership`` (agent id -> shard)."""
        self._owner_of = ownership
        self._owned_counts = [0] * len(self._shard_ids)
        for owner in ownership.values():
            self._owned_counts[owner] += 1

    def worker_of(self, agent_id: Any) -> int:
        """Return the id of the worker currently owning ``agent_id``."""
        try:
            return self._owner_of[agent_id]
        except KeyError:
            raise BraceError(f"agent {agent_id} is not owned by any worker") from None

    def owned_counts(self) -> list[int]:
        """Number of owned agents per worker."""
        return list(self._owned_counts)

    def checkpoint_sizes(self) -> list[int]:
        """Modeled checkpoint bytes per shard: its owned agents' frame sizes.

        Charged from the same frame-size formula as the wire traffic
        (:func:`repro.ipc.sizing.agent_frame_bytes`), so checkpoint and IPC
        costs stay on one scale.
        """
        sizes = [0] * len(self._shard_ids)
        for agent_id, owner in self._owner_of.items():
            sizes[owner] += agent_frame_bytes(self._world.get_agent(agent_id))
        return sizes

    # ------------------------------------------------------------------
    # Tick execution
    # ------------------------------------------------------------------
    def run_tick(self) -> BraceTickStatistics:
        """Execute one distributed tick and return its statistics.

        Three shard rounds — map/distribute, query, update — exchange only
        boundary deltas with the executor-hosted workers; the driver keeps
        only the ownership map, for routing, load statistics and the cost
        model.
        """
        config = self.config
        world = self._world
        tick = world.tick
        network = self.cost_model.network
        wall_start = time.perf_counter()

        self._ensure_shards()
        transport_copies = not self.executor.shares_memory
        materialized = self._tick_materialized = [0] * len(self._shard_ids)
        worker_costs = [WorkerTickCost(shard_id) for shard_id in self._shard_ids]
        num_agents = world.agent_count()
        ipc_sent = 0
        ipc_received = 0
        ipc_phase = self._zero_ipc_phase()

        # ------------------------------------------------------------------
        # Round 1 — map/distribute: each shard applies the previous tick's
        # births/deaths and computes its outgoing migrations and replicas.
        # ------------------------------------------------------------------
        pending, self._pending_boundary = self._pending_boundary, {}
        map_results = self._shard_round(
            [
                (shard_id, shard_map_phase, MapCommand(boundary=pending.get(shard_id)))
                for shard_id in self._shard_ids
            ],
            phase=ipc_phase,
        )
        ipc_sent += sum(result.payload_bytes for result in map_results)
        ipc_received += sum(result.result_bytes for result in map_results)

        migration_bytes: Counter = Counter()
        replication_bytes: Counter = Counter()
        agents_migrated = 0
        replicas_created = 0
        migrated_in: dict[int, list] = {shard_id: [] for shard_id in self._shard_ids}
        replicas_in: dict[int, list] = {shard_id: [] for shard_id in self._shard_ids}
        for result in map_results:
            plan = result.value
            for destination, agents in sorted(plan.migrations_out.items()):
                for agent in agents:
                    # Forward the shard's fresh copy to its new home.
                    self._own(agent.agent_id, destination)
                    migrated_in[destination].append(agent)
            for destination, replicas in sorted(plan.replicas_out.items()):
                if transport_copies:
                    # One still-packed ReplicaDelta per source: the driver
                    # never looks inside replicas, so they route as they are.
                    replicas_in[destination].append(replicas)
                else:
                    replicas_in[destination].extend(replicas)
            migration_bytes.update(plan.migration_pair_bytes)
            replication_bytes.update(plan.replication_pair_bytes)
            agents_migrated += plan.agents_migrated
            replicas_created += plan.replicas_created

        for cost, count in zip(worker_costs, self._owned_counts):
            cost.work_units += MAP_WORK_UNITS_PER_AGENT * count

        bytes_migrated = self._charge_transfers(migration_bytes, worker_costs, network)
        bytes_replicated = self._charge_transfers(replication_bytes, worker_costs, network)

        # ------------------------------------------------------------------
        # Round 2 — query phase: ship only the incoming deltas; get back only
        # the non-local partials (owned effects stay resident in the shard).
        # ------------------------------------------------------------------
        query_results = self._shard_round(
            [
                (
                    shard_id,
                    shard_query_phase,
                    QueryCommand(
                        migrated_in=migrated_in[shard_id],
                        replicas_in=replicas_in[shard_id],
                        tick=tick,
                    ),
                )
                for shard_id in self._shard_ids
            ],
            phase=ipc_phase,
        )
        ipc_sent += sum(result.payload_bytes for result in query_results)
        ipc_received += sum(result.result_bytes for result in query_results)
        query_seconds = [result.wall_seconds for result in query_results]
        query_work_units = [result.value.work_units for result in query_results]
        for cost, work_units in zip(worker_costs, query_work_units):
            cost.work_units += work_units

        # ------------------------------------------------------------------
        # Reduce 2 — route partials driver-side in one global order (source
        # worker id, then agent sort key).
        # ------------------------------------------------------------------
        bytes_effects = 0
        routed: dict[int, list] = {shard_id: [] for shard_id in self._shard_ids}
        if config.non_local_effects:
            effect_bytes: Counter = Counter()
            for result in query_results:
                source = result.shard_id
                for agent_id, partials in sorted(
                    result.value.replica_partials.items(),
                    key=lambda item: agent_sort_key(item[0]),
                ):
                    owner = self.worker_of(agent_id)
                    size = partial_frame_bytes(partials)
                    if owner != source:
                        effect_bytes[(source, owner)] += size
                    routed[owner].append((agent_id, partials))
                    worker_costs[owner].work_units += len(partials)
            bytes_effects = self._charge_transfers(effect_bytes, worker_costs, network)
        else:
            for result in query_results:
                if result.value.replica_partials:
                    raise BraceError(
                        "the model assigned non-local effects but "
                        "BraceConfig.non_local_effects is False; enable the second "
                        "reduce pass or use an effect-inverted script"
                    )

        # ------------------------------------------------------------------
        # Round 3 — update phase: ship routed partials; get back only the
        # birth/death requests.  New agent states stay resident.
        # ------------------------------------------------------------------
        update_results = self._shard_round(
            [
                (shard_id, shard_update_phase, UpdateCommand(partials=routed[shard_id], tick=tick))
                for shard_id in self._shard_ids
            ],
            phase=ipc_phase,
        )
        ipc_sent += sum(result.payload_bytes for result in update_results)
        ipc_received += sum(result.result_bytes for result in update_results)
        update_seconds = [result.wall_seconds for result in update_results]

        merged_updates = UpdateContext(tick=tick, seed=self.seed, world_bounds=world.bounds)
        for result in update_results:
            context = UpdateContext(tick=tick, seed=self.seed, world_bounds=world.bounds)
            context._spawn_requests = list(result.value.spawn_requests)
            context._kill_requests = set(result.value.kill_requests)
            merged_updates.merge(context)

        for cost, count in zip(worker_costs, self._owned_counts):
            cost.work_units += UPDATE_WORK_UNITS_PER_AGENT * count
            cost.agents_owned = count

        # Births and deaths are decided globally by the driver (deterministic
        # id allocation) and shipped to the shards with the next tick's map
        # command — or flushed eagerly if an epoch boundary needs them.  A
        # child BRACE cannot place is refused before it joins the world.
        for _parent_id, _sequence, child in merged_updates.spawn_requests:
            self._check_placeable(child)
        spawned_agents, killed_ids = apply_births_and_deaths(world, merged_updates)
        for agent_id in killed_ids:
            owner = self._owner_of.pop(agent_id, None)
            if owner is not None:
                self._owned_counts[owner] -= 1
                self._boundary_for(owner).kill_ids.append(agent_id)
        for agent in spawned_agents:
            owner = self._place(agent)
            self._own(agent.agent_id, owner)
            self._boundary_for(owner).spawn_agents.append(agent)

        self._world_dirty = transport_copies or any(
            result.value.resident for result in update_results
        )

        # ------------------------------------------------------------------
        # Epilogue: charge the cost model, record the tick, advance the world
        # clock and handle the epoch boundary.
        # ------------------------------------------------------------------
        num_passes = 3 if config.non_local_effects else 2
        breakdown = self.cost_model.tick_cost(tick, worker_costs, num_passes=num_passes)
        owned_counts = self.owned_counts()
        wall_seconds = time.perf_counter() - wall_start
        world.tick += 1

        stats = BraceTickStatistics(
            tick=tick,
            num_agents=num_agents,
            virtual_seconds=breakdown.total_seconds,
            wall_seconds=wall_seconds,
            compute_seconds=breakdown.compute_seconds,
            communication_seconds=breakdown.communication_seconds,
            synchronization_seconds=breakdown.synchronization_seconds,
            bytes_replicated=bytes_replicated,
            bytes_effects=bytes_effects,
            bytes_migrated=bytes_migrated,
            replicas_created=replicas_created,
            agents_migrated=agents_migrated,
            max_worker_agents=max(owned_counts) if owned_counts else 0,
            min_worker_agents=min(owned_counts) if owned_counts else 0,
            num_passes=num_passes,
            spawned=len(spawned_agents),
            killed=len(killed_ids),
            executor=self.executor.name,
            ipc_bytes_sent=ipc_sent,
            ipc_bytes_received=ipc_received,
            ipc_serialize_seconds=ipc_phase["serialize"],
            ipc_transport_seconds=ipc_phase["transport"],
            ipc_compute_seconds=ipc_phase["compute"],
            ipc_wait_seconds=ipc_phase["wait"],
            query_seconds_per_worker=query_seconds,
            query_work_units_per_worker=query_work_units,
            update_seconds_per_worker=update_seconds,
            # The epoch boundary below still adds its rounds' rows.
            rows_materialized_per_worker=materialized,
        )
        self.metrics.add_tick(stats)

        self._epoch_ticks += 1
        self._epoch_virtual_seconds += stats.virtual_seconds
        self._epoch_wall_seconds += stats.wall_seconds
        self._epoch_agent_ticks += stats.agent_ticks
        for key in self._epoch_ipc_phase:
            self._epoch_ipc_phase[key] += ipc_phase[key]
        if self._epoch_ticks >= config.ticks_per_epoch:
            self._end_of_epoch(stats)
        self._tick_materialized = None
        return stats

    def run(self, ticks: int) -> BraceRunMetrics:
        """Execute ``ticks`` distributed ticks under :meth:`supervised_ticks`.

        On a copying transport the driver's world holds stale agent state
        while ticks run; the final states are pulled back once at the end
        (:meth:`sync_world`).
        """
        for _stats in self.supervised_ticks(ticks):
            pass
        self.metrics.add_sync_ipc(self.sync_world())
        return self.metrics

    def supervised_ticks(self, ticks: int):
        """Yield the statistics of ``ticks`` ticks, absorbing node losses.

        The one supervision policy, shared by :meth:`run` and the session
        layer's streams: when checkpointing is on and a checkpoint exists, a
        supervised node loss (:class:`~repro.core.errors.NodeLossError`) is
        absorbed — the run recovers from the last checkpoint and re-executes
        the lost ticks (yielding them again) — raising only when no node
        survived, no checkpoint exists yet, or repeated losses stop the run
        from making progress.  (:meth:`run_tick` itself always raises —
        callers driving ticks directly own their recovery policy.)
        """
        target_tick = self._world.tick + ticks
        best_tick = self._world.tick
        stalled_recoveries = 0
        while self._world.tick < target_tick:
            try:
                stats = self.run_tick()
            except NodeLossError as error:
                if error.action == "lost":
                    raise  # no node survived; nothing to resume on
                if not (
                    self.config.checkpointing
                    and self.master.checkpoint_manager.has_checkpoint()
                ):
                    raise
                if self._world.tick > best_tick:
                    best_tick = self._world.tick
                    stalled_recoveries = 0
                stalled_recoveries += 1
                if stalled_recoveries > 3:
                    raise  # losing nodes faster than ticks re-execute
                self.recover()
            else:
                yield stats

    # ------------------------------------------------------------------
    # Shard management
    # ------------------------------------------------------------------
    def _ensure_shards(self) -> None:
        """Seed the executor-hosted shards from the ownership map (lazy).

        Hands each shard's seed (:meth:`_shard_seeds`) over **once**;
        afterwards ticks exchange only deltas.
        Called again after :meth:`restore` released the shards (they are
        re-seeded from the restored world) or after an executor failure
        invalidated the shard state.
        """
        if self._shards_ready:
            return
        if self.executor.has_shards():
            self.executor.teardown_shards()
        self.executor.init_shards(make_resident_worker, self._shard_seeds())
        self._shards_ready = True
        self._pending_boundary = {}
        self._world_dirty = False

    def _shard_seeds(self) -> dict[int, ShardSeed]:
        """What hosts each shard: its partition, the world agents the
        ownership map gives it (in :func:`~repro.core.ordering.agent_sort_key`
        order), the current partitioning, and the run-wide settings every
        shard runs with — the only place those settings are read off the
        run."""
        config = self.config
        partitioning = self.master.partitioning
        settings = ShardSettings(
            seed=self.seed,
            check_visibility=config.check_visibility,
            spatial_backend=config.spatial_backend,
            plan_backend=config.plan_backend,
            world_bounds=self._world.bounds,
            # Crossing a wire copies every outgoing agent, which is what
            # lets shards skip replica clones and ship replica deltas.
            transport_copies=not self.executor.shares_memory,
        )
        owned: dict[int, list] = {shard_id: [] for shard_id in self._shard_ids}
        for agent_id in sorted(self._owner_of, key=agent_sort_key):
            owned[self._owner_of[agent_id]].append(self._world.get_agent(agent_id))
        return {
            shard_id: ShardSeed(
                partition=partitioning.partition(shard_id),
                partitioning=partitioning,
                agents=agents,
                settings=settings,
            )
            for shard_id, agents in owned.items()
        }

    def _shard_round(self, tasks, phase: dict[str, float] | None = None):
        """One synchronized round of shard tasks, invalidating state on failure.

        When ``phase`` is given and the transport is a wire, the round's IPC
        phase breakdown accumulates into it: per-task serialize/transport
        seconds as measured at both ends, total task compute, and the *wait*
        residual — round wall clock not accounted for by serialization,
        transport, or the slowest task — which is the synchronization + pipe
        overhead.  By reference there is no IPC to account for and the
        breakdown stays zero.
        """
        start = time.perf_counter()
        results = self._shard_round_raw(tasks)
        if self._tick_materialized is not None:
            for result in results:
                self._tick_materialized[result.shard_id] += result.rows_materialized
        if phase is not None and not self.executor.shares_memory:
            round_wall = time.perf_counter() - start
            serialize = sum(result.serialize_seconds for result in results)
            transport = sum(result.transport_seconds for result in results)
            slowest = max((result.wall_seconds for result in results), default=0.0)
            phase["serialize"] += serialize
            phase["transport"] += transport
            phase["compute"] += sum(result.wall_seconds for result in results)
            phase["wait"] += max(0.0, round_wall - serialize - transport - slowest)
        return results

    def _shard_round_raw(self, tasks):
        try:
            return self.executor.run_sharded_tasks(tasks)
        except NodeLossError:
            # A node died but the executor degraded instead of collapsing:
            # survivors keep their resident state (and their checkpoint
            # stash), only the dead node's shards await re-seeding.  Leave
            # the shards marked ready so :meth:`recover` can take the
            # partial path — the executor itself refuses to run another
            # round until the lost shards are re-seeded.
            self._drain_fault_events()
            raise
        except ExecutorError:
            # Whatever happened (a dead host, an unpicklable payload), the
            # resident state can no longer be trusted; force a re-seed before
            # the next tick runs.
            self._drain_fault_events()
            self._invalidate_shards()
            raise

    def _drain_fault_events(self) -> None:
        """Move supervision events from a wire executor onto the runtime."""
        if not self.executor.shares_memory:
            self.fault_events.extend(self.executor.drain_fault_events())

    def _invalidate_shards(self) -> None:
        """Drop the executor-hosted shard state; the next tick re-seeds it."""
        try:
            self.executor.teardown_shards()
        finally:
            self._shards_ready = False
            self._pending_boundary = {}

    def _boundary_for(self, worker_id: int) -> BoundaryDelta:
        """The pending boundary delta for one shard, created on demand."""
        delta = self._pending_boundary.get(worker_id)
        if delta is None:
            delta = self._pending_boundary[worker_id] = BoundaryDelta()
        return delta

    def _flush_pending_boundary(self) -> int:
        """Ship pending births/deaths to their shards; returns IPC bytes.

        Normally the boundary rides along with the next tick's map command
        (or a checkpoint's capture); coordinate pulls, repartitioning and
        syncs need the shards' membership current *now*.
        """
        if not self._pending_boundary or not self._shards_ready:
            self._pending_boundary = {}
            return 0
        pending, self._pending_boundary = self._pending_boundary, {}
        results = self._shard_round(
            [
                (worker_id, shard_apply_boundary, delta)
                for worker_id, delta in sorted(pending.items())
            ]
        )
        return sum(result.payload_bytes + result.result_bytes for result in results)

    def sync_world(self) -> int:
        """Pull resident agent states back into the driver's world.

        Returns the measured IPC bytes the sync cost (0 when nothing had to
        be pulled — a by-reference transport, or an already-clean world).
        Besides a checkpoint's capture, this is the one deliberately
        world-sized transfer of the protocol; it happens at the end of
        :meth:`run` and on demand — never per tick.  By reference the shards
        hold the world's own agents, and the sync is one in-process round
        that writes their resident columns back onto them
        (:func:`~repro.brace.shards.shard_materialize`), run only when a
        shard kept some.
        """
        if not (self._shards_ready and self._world_dirty):
            return 0
        if self.executor.shares_memory:
            self._shard_round(
                [(shard_id, shard_materialize, None) for shard_id in self._shard_ids]
            )
            self._world_dirty = False
            return 0
        ipc_bytes = self._flush_pending_boundary()
        results = self._shard_round(
            [(shard_id, shard_collect_states, None) for shard_id in self._shard_ids]
        )
        for result in results:
            for agent_id, state in result.value.items():
                if self._world.has_agent(agent_id):
                    self._world.get_agent(agent_id).set_state_dict(state)
        self._world_dirty = False
        return ipc_bytes + sum(
            result.payload_bytes + result.result_bytes for result in results
        )

    def _collect_axis_coordinates(self, axis: int) -> tuple[list[float], int]:
        """Balancing-axis coordinates of every agent, plus the IPC bytes paid.

        One float per agent pulled from the shards — the per-epoch
        "statistics message" the paper's master receives from its slaves.
        """
        results = self._shard_round(
            [(shard_id, shard_collect_coordinates, axis) for shard_id in self._shard_ids]
        )
        coordinates: list[float] = []
        for result in results:
            coordinates.extend(result.value)
        return coordinates, sum(
            result.payload_bytes + result.result_bytes for result in results
        )

    def close(self) -> None:
        """Sync any resident state back and release the executor's workers."""
        try:
            self.metrics.add_sync_ipc(self.sync_world())
        except ExecutorError:
            # Closing must succeed even when the nodes already died; the
            # world then keeps its last synced states.
            pass
        finally:
            self.executor.shutdown()

    def __enter__(self) -> "BraceRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @staticmethod
    def _charge_transfers(
        pair_bytes: dict[tuple[int, int], int],
        worker_costs: list[WorkerTickCost],
        network: NetworkModel,
    ) -> int:
        """Charge one batched message per (source, destination) pair.

        Returns the total number of bytes that actually crossed node
        boundaries (same-node pairs are collocated and free).
        """
        remote_bytes = 0
        for (source, destination), num_bytes in sorted(pair_bytes.items()):
            seconds = network.transfer_seconds(source, destination, num_bytes)
            remote = source != destination
            worker_costs[source].add_send(num_bytes, remote=remote, seconds=seconds)
            worker_costs[destination].add_receive(num_bytes, remote=remote, seconds=seconds)
            if remote:
                remote_bytes += num_bytes
        return remote_bytes

    # ------------------------------------------------------------------
    # Epoch boundary
    # ------------------------------------------------------------------
    def _end_of_epoch(self, last_tick: BraceTickStatistics) -> None:
        master = self.master
        reports = [
            WorkerReport(
                worker_id=shard_id,
                owned_agents=self._owned_counts[shard_id],
                work_units=last_tick.query_work_units_per_worker[shard_id],
                bytes_sent=0,
            )
            for shard_id in self._shard_ids
        ]
        epoch_ipc_bytes = 0
        coordinates: list[float] = []
        if self.config.load_balance and master.can_rebalance():
            # The balancer reads every agent's coordinate and may move agents
            # around: shards must reflect this tick's births/deaths first.
            # (Checkpoints need no flush here: the capture carries them.)
            epoch_ipc_bytes = self._flush_pending_boundary()
            coordinates, coordinate_ipc = self._collect_axis_coordinates(
                master.partitioning.axis
            )
            epoch_ipc_bytes += coordinate_ipc
        decision = master.end_of_epoch(reports, coordinates)

        rebalanced = False
        migrated_by_balancer = 0
        lb_seconds = 0.0
        if decision.load_balance is not None and decision.load_balance.rebalance:
            rebalanced = True
            migrated_by_balancer, lb_seconds, repartition_ipc = (
                self._apply_new_partitioning()
            )
            epoch_ipc_bytes += repartition_ipc

        checkpointed = False
        checkpoint_bytes = 0
        checkpoint_seconds = 0.0
        if decision.checkpoint:
            checkpointed = True
            sizes = self.checkpoint_sizes()
            checkpoint_bytes = sum(sizes)
            _checkpoint, capture_ipc = self.checkpoint(master.checkpoint_manager)
            epoch_ipc_bytes += capture_ipc
            checkpoint_seconds = max(
                (
                    self.cost_model.node(shard_id).checkpoint_seconds(size)
                    for shard_id, size in enumerate(sizes)
                ),
                default=0.0,
            )

        epoch_stats = EpochStatistics(
            epoch=master.epoch,
            first_tick=self._epoch_first_tick,
            ticks=self._epoch_ticks,
            virtual_seconds=self._epoch_virtual_seconds + lb_seconds + checkpoint_seconds,
            wall_seconds=self._epoch_wall_seconds,
            agent_ticks=self._epoch_agent_ticks,
            rebalanced=rebalanced,
            checkpointed=checkpointed,
            checkpoint_bytes=checkpoint_bytes,
            agents_migrated_by_balancer=migrated_by_balancer,
            ipc_bytes=epoch_ipc_bytes,
            ipc_serialize_seconds=self._epoch_ipc_phase["serialize"],
            ipc_transport_seconds=self._epoch_ipc_phase["transport"],
            ipc_compute_seconds=self._epoch_ipc_phase["compute"],
            ipc_wait_seconds=self._epoch_ipc_phase["wait"],
        )
        self.metrics.add_epoch(epoch_stats)
        for listener in self.epoch_listeners:
            listener(epoch_stats)
        self._start_epoch()

    def _apply_new_partitioning(
        self, rebalance_nodes: bool = True
    ) -> tuple[int, float, int]:
        """Physically move agents between shards after a rebalance.

        Two shard rounds: every shard adopts the new partitioning and hands
        back the agents that no longer belong to it; the driver routes them
        to their new shards (updating the ownership map and charging the
        cost model per moved agent) and installs them.
        Returns ``(agents migrated, virtual seconds, measured IPC bytes)``.
        """
        network = self.cost_model.network
        partitioning = self.master.partitioning
        per_worker_seconds = [0.0] * len(self._shard_ids)
        migrated = 0
        ipc_bytes = 0

        # A wire places shards on node processes and gets a chance to
        # re-home them for the new load before the adopt round; the round
        # then clears every shard's replica cache and delta send history,
        # which is exactly what makes the re-homed shard (rebuilt without
        # either) protocol-correct.
        if rebalance_nodes and not self.executor.shares_memory:
            weights = {
                shard_id: float(max(1, count)) for shard_id, count in enumerate(self._owned_counts)
            }
            _moves, moved_bytes = self.executor.rebalance_shards(weights)
            ipc_bytes += moved_bytes

        adopt_results = self._shard_round(
            [
                (
                    shard_id,
                    shard_adopt_partitioning,
                    RepartitionCommand(
                        partitioning=partitioning, partition=partitioning.partition(shard_id)
                    ),
                )
                for shard_id in self._shard_ids
            ]
        )
        ipc_bytes += sum(result.payload_bytes + result.result_bytes for result in adopt_results)

        incoming: dict[int, list] = {shard_id: [] for shard_id in self._shard_ids}
        for result in adopt_results:
            source = result.shard_id
            for destination, agents in sorted(result.value.items()):
                for agent in agents:
                    self._own(agent.agent_id, destination)
                    size = agent_frame_bytes(agent)
                    seconds = network.transfer_seconds(source, destination, size)
                    per_worker_seconds[source] += seconds
                    per_worker_seconds[destination] += seconds
                    migrated += 1
                    incoming[destination].append(agent)

        install_tasks = [
            (worker_id, shard_install_owned, agents)
            for worker_id, agents in sorted(incoming.items())
            if agents
        ]
        if install_tasks:
            install_results = self._shard_round(install_tasks)
            ipc_bytes += sum(
                result.payload_bytes + result.result_bytes for result in install_results
            )
        return migrated, max(per_worker_seconds, default=0.0), ipc_bytes

    def migrate_shard(self, shard_id: int, node: int) -> int:
        """Force one resident shard onto another node process mid-run.

        Only meaningful on a wire executor (``"process"``, ``"cluster"``),
        which places shards on nodes.  The shard's owned agents are
        serialized through the codec, re-homed, and a full adopt round under
        the *current* partitioning follows so every shard reships its
        replicas from scratch — the same sequence an automatic rebalance
        uses.  States stay bit-identical; returns the measured IPC bytes the
        move cost.
        """
        if self.executor.shares_memory:
            raise BraceError(
                f"the {self.executor.name!r} executor does not place shards on "
                "nodes; shard migration requires executor='process' or 'cluster'"
            )
        self._ensure_shards()
        ipc_bytes = self._flush_pending_boundary()
        ipc_bytes += self.executor.migrate_shard(shard_id, node)
        # Adopt under the current partitioning with the automatic node
        # rebalance suppressed, or the cost model could undo the forced
        # move before the replica caches are even reset.
        _migrated, _seconds, adopt_ipc = self._apply_new_partitioning(
            rebalance_nodes=False
        )
        return ipc_bytes + adopt_ipc

    # ------------------------------------------------------------------
    # Fault tolerance
    # ------------------------------------------------------------------
    def checkpoint(self, manager: CheckpointManager) -> tuple[Checkpoint, int]:
        """Checkpoint the run into ``manager`` with one shard round of
        :func:`shard_capture`; returns the checkpoint and the capture's
        measured IPC bytes.  The world is not synced: the images are the
        state."""
        tag = next(self._capture_tags)
        ipc_bytes = 0

        def capture() -> dict[int, bytes]:
            nonlocal ipc_bytes
            self._ensure_shards()
            # The births/deaths still pending ride along, as with a map command.
            pending, self._pending_boundary = self._pending_boundary, {}
            results = self._shard_round(
                [
                    (shard_id, shard_capture, (tag, pending.get(shard_id)))
                    for shard_id in self._shard_ids
                ]
            )
            ipc_bytes = sum(result.payload_bytes + result.result_bytes for result in results)
            return {result.shard_id: result.value for result in results}

        return manager.take(self._world, self.master.epoch, tag, capture), ipc_bytes

    def restore(self, checkpoint: Checkpoint, release_shards: bool = False) -> bool:
        """Put the run back onto ``checkpoint``'s state images — the one
        restore path, behind :meth:`recover` and the session's pause/resume.

        Rebuilds the world and reinstates the partitioning from the images;
        each agent is owned by the shard whose image holds it, so migrations
        pending at the capture still happen.  On a wire whose shards are up,
        survivors rewind from their stash in place (see
        :meth:`_rewind_shards`); otherwise, and with ``release_shards``, the
        next tick re-seeds every shard.  Metrics and epoch progress are
        kept.  Returns True when shards rewound in place.
        """
        seeds = {
            shard_id: decode_image(image) for shard_id, image in checkpoint.images.items()
        }
        self._world.rewind(
            checkpoint.tick,
            checkpoint.next_id,
            checkpoint.seed,
            [agent for seed in seeds.values() for agent in seed.agents],
        )
        self.master.partitioning = seeds[0].partitioning
        self._rebuild_ownership(
            {agent.agent_id: shard_id for shard_id, seed in seeds.items() for agent in seed.agents}
        )
        in_place = (
            not release_shards
            and self._shards_ready
            and not self.executor.shares_memory
            and self._rewind_shards(checkpoint.tag, seeds)
        )
        if not in_place:
            self._invalidate_shards()
        self._pending_boundary = {}
        self._world_dirty = False
        return in_place

    def _rewind_shards(self, tag: int, seeds: dict[int, ShardSeed]) -> bool:
        """Re-seed the lost shards from their images and rewind the
        survivors from their stash (:func:`shard_rewind`); False when none
        survived, a survivor's stash lacks the tag (a migration or re-seed
        rebuilt it) or a round fails."""
        lost = set(self.executor.lost_shards())
        survivors = [shard_id for shard_id in self._shard_ids if shard_id not in lost]
        if not survivors:
            return False
        try:
            # Lost shards first: the executor refuses ordinary rounds while
            # shards await re-seeding, and the survivors' rewind *is* an
            # ordinary round.
            if lost:
                self.executor.reseed_shards({shard_id: seeds[shard_id] for shard_id in lost})
            results = self._shard_round(
                [(shard_id, shard_rewind, tag) for shard_id in survivors]
            )
        except ExecutorError:
            return False
        return all(result.value for result in results)

    def recover(self) -> int:
        """Restore the last coordinated checkpoint after a failure.

        Returns the number of ticks lost (to be re-executed).  Raises
        :class:`repro.core.errors.CheckpointError` when no checkpoint exists.
        """
        tick_before_failure = self._world.tick
        checkpoint = self.master.checkpoint_manager.latest()
        in_place = self.restore(checkpoint)
        ticks_lost = max(0, tick_before_failure - checkpoint.tick)
        # Any partially accumulated epoch is discarded along with the lost ticks.
        self._start_epoch()
        self.fault_events.append(
            {
                "event": "recovered",
                "restored_tick": checkpoint.tick,
                "failed_tick": tick_before_failure,
                "ticks_lost": ticks_lost,
                "partial": in_place,
            }
        )
        for listener in self.recovery_listeners:
            listener(self._world, checkpoint.tick, tick_before_failure)
        return ticks_lost

    def run_with_failures(self, ticks: int, injector: FailureInjector) -> BraceRunMetrics:
        """Run ``ticks`` ticks while the injector may fail any of them.

        A failed tick is thrown away: the world is restored from the last
        checkpoint and every tick since then (including the failed one) is
        re-executed — the paper's recovery-by-re-execution strategy.
        Failures that occur before the first checkpoint are ignored (there is
        nothing to rewind to yet).
        """
        if not self.config.checkpointing:
            raise BraceError("run_with_failures requires checkpointing to be enabled")
        target_tick = self._world.tick + ticks
        while self._world.tick < target_tick:
            if injector.should_fail() and self.master.checkpoint_manager.has_checkpoint():
                self.recover()
                continue
            self.run_tick()
        self.metrics.add_sync_ipc(self.sync_world())
        return self.metrics

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def throughput(self, skip_ticks: int = 0) -> float:
        """Agent-ticks per virtual second, discarding ``skip_ticks`` warm-up ticks."""
        return self.metrics.throughput(skip_ticks)

    def __repr__(self) -> str:
        return (
            f"<BraceRuntime workers={len(self._shard_ids)} tick={self._world.tick} "
            f"agents={self._world.agent_count()}>"
        )
