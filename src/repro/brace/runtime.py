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
  objects and payloads are handed over as they are — no copy, no bytes, no
  sync; replicas travel as full clones;
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
checkpoints (which pull state from the shards), from which
:meth:`BraceRuntime.recover` restores after an injected failure by re-seeding
the shards from the restored world.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from typing import Any

from repro.brace.checkpoint import FailureInjector
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
    make_resident_worker,
    shard_adopt_partitioning,
    shard_apply_boundary,
    shard_collect_coordinates,
    shard_collect_states,
    shard_install_owned,
    shard_map_phase,
    shard_query_phase,
    shard_restore_checkpoint,
    shard_retain_checkpoint,
    shard_update_phase,
)
from repro.brace.worker import Worker
from repro.cluster.costmodel import ClusterCostModel, WorkerTickCost
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
        self.world = world
        self.config = config or BraceConfig()
        self.config.validate()
        if world.bounds is None:
            raise BraceError("BRACE requires World.bounds to build its spatial partitioning")
        self.seed = self.config.seed if self.config.seed is not None else world.seed

        self.master = Master(self.config, world.bounds)
        self.workers: list[Worker] = [
            Worker(partition.partition_id, partition)
            for partition in self.master.partitioning.partitions()
        ]
        network = NetworkModel(
            latency_seconds=self.config.latency_seconds,
            bandwidth_bytes_per_second=self.config.bandwidth_bytes_per_second,
            nodes_per_switch=self.config.nodes_per_switch,
            inter_switch_penalty=self.config.inter_switch_penalty,
        )
        nodes = [
            SimulatedNode(worker.worker_id, self.config.work_units_per_second)
            for worker in self.workers
        ]
        self.cost_model = ClusterCostModel(
            network=network, nodes=nodes, barrier_seconds=self.config.barrier_seconds
        )
        self.metrics = BraceRunMetrics()

        max_workers = self.config.max_workers
        if max_workers is None:
            max_workers = max(1, min(self.config.num_workers, os.cpu_count() or 1))
        #: Execution backend hosting the worker shards.  Its ``shares_memory``
        #: flag is the one transport decision: true hands shard payloads over
        #: by reference, false ships them as columnar frames to node
        #: processes (which can be lost, and between which shards can move).
        #: The cluster backend is built directly so the config's topology
        #: knobs and the *same* network model that prices virtual time also
        #: drive the physical shard placement.
        if self.config.executor == "cluster":
            from repro.cluster.client import ClusterExecutor

            self.executor = ClusterExecutor(
                max_workers,
                num_nodes=self.config.cluster_nodes,
                listen=self.config.cluster_listen,
                spawn=self.config.cluster_spawn,
                heartbeat_interval=self.config.heartbeat_interval_seconds,
                heartbeat_timeout=self.config.heartbeat_timeout_seconds,
                secret=self.config.cluster_secret,
                readmission_timeout=self.config.readmission_timeout_seconds,
                network=network,
                sim_nodes=[
                    SimulatedNode(index, self.config.work_units_per_second)
                    for index in range(self.config.cluster_nodes)
                ],
            )
        else:
            self.executor = make_executor(self.config.executor, max_workers)

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
        #: True when shard-resident states are newer than the driver's world
        #: (never on a by-reference transport: the shards hold the world's
        #: own agents).
        self._world_dirty = False
        #: Bumped whenever the partitioning (or the physical shard layout)
        #: changes; part of the checkpoint stash tag so :meth:`recover`
        #: never restores a stashed epoch across a layout it predates.
        self._partitioning_version = 0
        #: ``(tick, partitioning_version)`` of the latest shard-local
        #: checkpoint stash, and the driver's ownership map at that instant
        #: (used to re-seed lost shards with their natural owned sets).
        self._stash_tag: tuple[int, int] | None = None
        self._checkpoint_ownership: dict[Any, int] | None = None
        #: Supervision events (node deaths, recoveries) drained from the
        #: executor; the session layer surfaces them on the run result.
        self.fault_events: list[dict] = []

        self._owner_of: dict[Any, int] = {}
        self._assign_initial_ownership()

        self._epoch_ticks = 0
        self._epoch_virtual_seconds = 0.0
        self._epoch_wall_seconds = 0.0
        self._epoch_agent_ticks = 0
        self._epoch_first_tick = world.tick
        self._epoch_ipc_phase = self._zero_ipc_phase()

    @staticmethod
    def _zero_ipc_phase() -> dict[str, float]:
        return {"serialize": 0.0, "transport": 0.0, "compute": 0.0, "wait": 0.0}

    # ------------------------------------------------------------------
    # Ownership bookkeeping
    # ------------------------------------------------------------------
    def _assign_initial_ownership(self) -> None:
        for agent in self.world.agents():
            owner = self.master.partitioning.partition_of(agent.position())
            self.workers[owner].add_owned(agent)
            self._owner_of[agent.agent_id] = owner

    def worker_of(self, agent_id: Any) -> int:
        """Return the id of the worker currently owning ``agent_id``."""
        try:
            return self._owner_of[agent_id]
        except KeyError:
            raise BraceError(f"agent {agent_id} is not owned by any worker") from None

    def owned_counts(self) -> list[int]:
        """Number of owned agents per worker."""
        return [worker.owned_count() for worker in self.workers]

    # ------------------------------------------------------------------
    # Tick execution
    # ------------------------------------------------------------------
    def run_tick(self) -> BraceTickStatistics:
        """Execute one distributed tick and return its statistics.

        Three shard rounds — map/distribute, query, update — exchange only
        boundary deltas with the executor-hosted workers; the driver keeps
        shadow workers (membership and, on a copying transport, stale agent
        objects; no per-tick state) for ownership, load statistics and the
        cost model.
        """
        config = self.config
        world = self.world
        tick = world.tick
        network = self.cost_model.network
        wall_start = time.perf_counter()

        self._ensure_shards()
        # Crossing a wire copies every outgoing agent, which is what lets
        # shards skip replica clones and ship replica deltas instead.
        transport_copies = not self.executor.shares_memory
        worker_costs = [WorkerTickCost(worker.worker_id) for worker in self.workers]
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
                (
                    worker.worker_id,
                    shard_map_phase,
                    MapCommand(
                        boundary=pending.get(worker.worker_id),
                        transport_copies=transport_copies,
                    ),
                )
                for worker in self.workers
            ],
            phase=ipc_phase,
        )
        ipc_sent += sum(result.payload_bytes for result in map_results)
        ipc_received += sum(result.result_bytes for result in map_results)

        migration_bytes: Counter = Counter()
        replication_bytes: Counter = Counter()
        agents_migrated = 0
        replicas_created = 0
        migrated_in: dict[int, list] = {worker.worker_id: [] for worker in self.workers}
        replicas_in: dict[int, list] = {worker.worker_id: [] for worker in self.workers}
        for result in map_results:
            source = result.shard_id
            plan = result.value
            for destination, agents in sorted(plan.migrations_out.items()):
                for agent in agents:
                    # Move the driver's (possibly stale) twin between shadow
                    # workers; forward the shard's fresh copy to its new home.
                    stale = self.workers[source].remove_owned(agent.agent_id)
                    self.workers[destination].add_owned(stale)
                    self._owner_of[agent.agent_id] = destination
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

        for worker in self.workers:
            cost = worker_costs[worker.worker_id]
            cost.work_units += config.map_work_units_per_agent * worker.owned_count()

        bytes_migrated = self._charge_transfers(migration_bytes, worker_costs, network)
        bytes_replicated = self._charge_transfers(replication_bytes, worker_costs, network)

        # ------------------------------------------------------------------
        # Round 2 — query phase: ship only the incoming deltas; get back only
        # the non-local partials (owned effects stay resident in the shard).
        # ------------------------------------------------------------------
        query_results = self._shard_round(
            [
                (
                    worker.worker_id,
                    shard_query_phase,
                    QueryCommand(
                        migrated_in=migrated_in[worker.worker_id],
                        replicas_in=replicas_in[worker.worker_id],
                        tick=tick,
                        seed=self.seed,
                        check_visibility=config.check_visibility,
                        spatial_backend=config.spatial_backend,
                        plan_backend=config.plan_backend,
                    ),
                )
                for worker in self.workers
            ],
            phase=ipc_phase,
        )
        ipc_sent += sum(result.payload_bytes for result in query_results)
        ipc_received += sum(result.result_bytes for result in query_results)
        query_seconds = [result.wall_seconds for result in query_results]
        for worker, result in zip(self.workers, query_results):
            worker.last_query_work_units = result.value.work_units
            worker.last_index_probes = result.value.index_probes
            worker_costs[worker.worker_id].work_units += result.value.work_units

        # ------------------------------------------------------------------
        # Reduce 2 — route partials driver-side in one global order (source
        # worker id, then agent sort key).
        # ------------------------------------------------------------------
        bytes_effects = 0
        routed: dict[int, list] = {worker.worker_id: [] for worker in self.workers}
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
                (
                    worker.worker_id,
                    shard_update_phase,
                    UpdateCommand(
                        partials=routed[worker.worker_id],
                        tick=tick,
                        seed=self.seed,
                        world_bounds=world.bounds,
                        plan_backend=config.plan_backend,
                    ),
                )
                for worker in self.workers
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

        for worker in self.workers:
            cost = worker_costs[worker.worker_id]
            cost.work_units += config.update_work_units_per_agent * worker.owned_count()
            cost.agents_owned = worker.owned_count()

        # Births and deaths are decided globally by the driver (deterministic
        # id allocation) and shipped to the shards with the next tick's map
        # command — or flushed eagerly if an epoch boundary needs them.
        spawned_agents, killed_ids = apply_births_and_deaths(world, merged_updates)
        for agent_id in killed_ids:
            owner = self._owner_of.pop(agent_id, None)
            if owner is not None:
                if agent_id in self.workers[owner].owned:
                    self.workers[owner].remove_owned(agent_id)
                self._boundary_for(owner).kill_ids.append(agent_id)
        for agent in spawned_agents:
            owner = self.master.partitioning.partition_of(agent.position())
            self.workers[owner].add_owned(agent)
            self._owner_of[agent.agent_id] = owner
            self._boundary_for(owner).spawn_agents.append(agent)

        self._world_dirty = transport_copies

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
            update_seconds_per_worker=update_seconds,
        )
        self.metrics.add_tick(stats)

        self._epoch_ticks += 1
        self._epoch_virtual_seconds += stats.virtual_seconds
        self._epoch_wall_seconds += stats.wall_seconds
        self._epoch_agent_ticks += stats.agent_ticks
        for key in self._epoch_ipc_phase:
            self._epoch_ipc_phase[key] += ipc_phase[key]
        if self._epoch_ticks >= config.ticks_per_epoch:
            self._end_of_epoch()
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
        target_tick = self.world.tick + ticks
        best_tick = self.world.tick
        stalled_recoveries = 0
        while self.world.tick < target_tick:
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
                if self.world.tick > best_tick:
                    best_tick = self.world.tick
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
        """Seed the executor-hosted shards from the driver's workers (lazy).

        Hands each worker's partition, the current partitioning and its
        owned agents over **once**; afterwards ticks exchange only deltas.
        Called again after :meth:`recover` (shards are re-seeded from the
        restored world) or after an executor failure invalidated the shard
        state.
        """
        if self._shards_ready:
            return
        if self.executor.has_shards():
            self.executor.teardown_shards()
        payloads = {
            worker.worker_id: ShardSeed(
                partition=worker.partition,
                partitioning=self.master.partitioning,
                agents=worker.owned_agents(),
            )
            for worker in self.workers
        }
        self.executor.init_shards(make_resident_worker, payloads)
        self._shards_ready = True
        self._pending_boundary = {}
        self._world_dirty = False

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

        Normally the boundary rides along with the next tick's map command;
        epoch-boundary operations (coordinate pulls, repartitioning,
        checkpoints, final sync) need the shards' membership current *now*.
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
        be pulled — a by-reference transport, whose shards hold the world's
        own agents, or an already-clean world).  This is the one
        deliberately world-sized transfer of the protocol; it happens at the
        end of :meth:`run`, before checkpoints, and on demand — never per
        tick.
        """
        if not (self._shards_ready and self._world_dirty):
            return 0
        ipc_bytes = self._flush_pending_boundary()
        results = self._shard_round(
            [(worker.worker_id, shard_collect_states, None) for worker in self.workers]
        )
        for result in results:
            for agent_id, state in result.value.items():
                if self.world.has_agent(agent_id):
                    self.world.get_agent(agent_id).set_state_dict(state)
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
            [(worker.worker_id, shard_collect_coordinates, axis) for worker in self.workers]
        )
        coordinates: list[float] = []
        for result in results:
            coordinates.extend(result.value)
        return coordinates, sum(
            result.payload_bytes + result.result_bytes for result in results
        )

    def suspend(self) -> None:
        """Pull resident state back and release the executor-hosted shards.

        After suspending, the driver's world holds the authoritative agent
        states and no simulation state lives inside the executor; the runtime
        stays fully usable — the next tick lazily re-seeds the shards.  This
        is the teardown half of the session layer's ``pause()``: a paused
        simulation keeps no shard state on its node processes.
        """
        self.metrics.add_sync_ipc(self.sync_world())
        if self._shards_ready:
            self._invalidate_shards()

    def restore_world(self, snapshot: dict[str, Any]) -> None:
        """Reset the runtime onto a world snapshot taken at a tick boundary.

        The counterpart of :meth:`suspend` used by the session layer's
        ``resume()``: the world is restored exactly as checkpoint recovery
        does (same machinery), ownership is rebuilt from agent positions
        under the current partitioning, and any resident shard state is
        dropped so the next tick re-seeds from the restored agents.  Unlike
        :meth:`recover`, accumulated metrics and the current epoch's
        progress are kept — suspending is not a failure.
        """
        self.world.restore(snapshot)
        self._rebuild_ownership()
        self._invalidate_shards()
        self._world_dirty = False

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
    def _end_of_epoch(self) -> None:
        config = self.config
        # Shards must reflect this tick's births/deaths before the master
        # gathers statistics or moves agents around.
        epoch_ipc_bytes = self._flush_pending_boundary()
        reports = [
            WorkerReport(
                worker_id=worker.worker_id,
                owned_agents=worker.owned_count(),
                work_units=worker.last_query_work_units,
                bytes_sent=0,
            )
            for worker in self.workers
        ]
        coordinates, coordinate_ipc = self._collect_axis_coordinates(config.load_balance_axis)
        epoch_ipc_bytes += coordinate_ipc
        decision = self.master.end_of_epoch(reports, coordinates)

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
            # Checkpoints pull state from the shards: the driver's world is
            # synced once, then snapshot.
            epoch_ipc_bytes += self.sync_world()
            checkpoint_bytes = sum(worker.checkpoint_size_bytes() for worker in self.workers)
            self.master.checkpoint_manager.take(self.world, self.master.epoch, checkpoint_bytes)
            epoch_ipc_bytes += self._stash_shard_checkpoints()
            checkpoint_seconds = max(
                (
                    self.cost_model.node(worker.worker_id).checkpoint_seconds(
                        worker.checkpoint_size_bytes()
                    )
                    for worker in self.workers
                ),
                default=0.0,
            )

        epoch_stats = EpochStatistics(
            epoch=self.master.epoch,
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

        self._epoch_ticks = 0
        self._epoch_virtual_seconds = 0.0
        self._epoch_wall_seconds = 0.0
        self._epoch_agent_ticks = 0
        self._epoch_first_tick = self.world.tick
        self._epoch_ipc_phase = self._zero_ipc_phase()

    def _stash_shard_checkpoints(self) -> int:
        """Have every resident shard stash its own seed for this checkpoint.

        Only runs on a wire, which can lose a *subset* of its shards: after
        a node death the surviving shards rewind themselves from this stash
        in place, so recovery re-ships only the lost shards instead of
        tearing every node's state down.  Returns the measured IPC bytes of
        the stash round.
        """
        if not self._shards_ready or self.executor.shares_memory:
            return 0
        tag = (self.world.tick, self._partitioning_version)
        results = self._shard_round(
            [
                (worker.worker_id, shard_retain_checkpoint, {"tag": tag})
                for worker in self.workers
            ]
        )
        self._stash_tag = tag
        self._checkpoint_ownership = dict(self._owner_of)
        return sum(result.payload_bytes + result.result_bytes for result in results)

    def _apply_new_partitioning(
        self, rebalance_nodes: bool = True
    ) -> tuple[int, float, int]:
        """Physically move agents between shards after a rebalance.

        Two shard rounds: every shard adopts the new partitioning and hands
        back the agents that no longer belong to it; the driver routes them
        to their new shards (updating its shadow ownership and charging the
        cost model per moved agent) and installs them.
        Returns ``(agents migrated, virtual seconds, measured IPC bytes)``.
        """
        network = self.cost_model.network
        partitioning = self.master.partitioning
        per_worker_seconds = [0.0] * len(self.workers)
        migrated = 0
        ipc_bytes = 0
        # Ownership and shard placement are about to shuffle; any stashed
        # checkpoint epoch predates the new layout.
        self._partitioning_version += 1

        # A wire places shards on node processes and gets a chance to
        # re-home them for the new load before the adopt round; the round
        # then clears every shard's replica cache and delta send history,
        # which is exactly what makes the re-homed shard (rebuilt without
        # either) protocol-correct.
        if rebalance_nodes and not self.executor.shares_memory:
            weights = {
                worker.worker_id: float(max(1, worker.owned_count()))
                for worker in self.workers
            }
            _moves, moved_bytes = self.executor.rebalance_shards(weights)
            ipc_bytes += moved_bytes

        adopt_results = self._shard_round(
            [
                (
                    worker.worker_id,
                    shard_adopt_partitioning,
                    RepartitionCommand(
                        partitioning=partitioning,
                        partition=partitioning.partition(worker.worker_id),
                    ),
                )
                for worker in self.workers
            ]
        )
        ipc_bytes += sum(result.payload_bytes + result.result_bytes for result in adopt_results)
        for worker in self.workers:
            worker.partition = partitioning.partition(worker.worker_id)

        incoming: dict[int, list] = {worker.worker_id: [] for worker in self.workers}
        for result in adopt_results:
            source = result.shard_id
            for destination, agents in sorted(result.value.items()):
                for agent in agents:
                    stale = self.workers[source].remove_owned(agent.agent_id)
                    self.workers[destination].add_owned(stale)
                    self._owner_of[agent.agent_id] = destination
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
    def recover(self) -> int:
        """Restore the last coordinated checkpoint after a failure.

        Returns the number of ticks lost (to be re-executed).  Raises
        :class:`repro.core.errors.CheckpointError` when no checkpoint exists.
        """
        tick_before_failure = self.world.tick
        checkpoint = self.master.checkpoint_manager.restore_latest(self.world)
        ticks_lost = max(0, tick_before_failure - checkpoint.tick)
        restored_in_place = (
            self._shards_ready
            and not self.executor.shares_memory
            and self._recover_shards_in_place(checkpoint)
        )
        if not restored_in_place:
            self._rebuild_ownership()
            # Resident state died with the "failed" workers: drop the shards
            # and lazily re-seed them from the restored world next tick.
            self._invalidate_shards()
            self._world_dirty = False
        # Any partially accumulated epoch is discarded along with the lost ticks.
        self._epoch_ticks = 0
        self._epoch_virtual_seconds = 0.0
        self._epoch_wall_seconds = 0.0
        self._epoch_agent_ticks = 0
        self._epoch_first_tick = self.world.tick
        self._epoch_ipc_phase = self._zero_ipc_phase()
        self.fault_events.append(
            {
                "event": "recovered",
                "restored_tick": checkpoint.tick,
                "failed_tick": tick_before_failure,
                "ticks_lost": ticks_lost,
                "partial": bool(restored_in_place),
            }
        )
        for listener in self.recovery_listeners:
            listener(self.world, checkpoint.tick, tick_before_failure)
        return ticks_lost

    def _recover_shards_in_place(self, checkpoint) -> bool:
        """Partial recovery: rewind survivors shard-locally, re-ship only
        the lost shards.

        Valid only when the latest shard-local stash matches the restored
        checkpoint *and* the partitioning has not changed since it was
        taken.  The driver's shadow ownership is rebuilt from the map
        snapshotted at checkpoint time (the stashed shards hold exactly
        those owned sets — position-based reassignment would disagree with
        them for agents whose migration was still pending).  Returns False
        on any mismatch or mid-recovery failure; the caller then falls back
        to the full teardown-and-reseed path, which is always correct.
        """
        lost = set(self.executor.lost_shards())
        survivors = sorted(
            worker.worker_id for worker in self.workers if worker.worker_id not in lost
        )
        if not survivors:
            return False
        tag = (checkpoint.tick, self._partitioning_version)
        ownership = self._checkpoint_ownership
        if self._stash_tag != tag or ownership is None:
            return False
        for worker in self.workers:
            worker.clear_owned()
            worker.clear_replicas()
        self._owner_of = dict(ownership)
        for agent_id, owner in ownership.items():
            if not self.world.has_agent(agent_id):
                return False  # snapshot disagrees with the restored world
            self.workers[owner].add_owned(self.world.get_agent(agent_id))
        try:
            # Lost shards first: the executor refuses ordinary rounds while
            # shards await re-seeding, and the survivors' restore *is* an
            # ordinary round.
            if lost:
                self.executor.reseed_shards(
                    {
                        shard_id: ShardSeed(
                            partition=self.workers[shard_id].partition,
                            partitioning=self.master.partitioning,
                            agents=self.workers[shard_id].owned_agents(),
                        )
                        for shard_id in sorted(lost)
                    }
                )
            restore_results = self._shard_round(
                [
                    (shard_id, shard_restore_checkpoint, {"tag": tag})
                    for shard_id in survivors
                ]
            )
        except ExecutorError:
            return False
        if not all(result.value.get("restored") for result in restore_results):
            return False
        self._pending_boundary = {}
        self._world_dirty = False
        return True

    def _rebuild_ownership(self) -> None:
        for worker in self.workers:
            worker.clear_owned()
            worker.clear_replicas()
        self._owner_of.clear()
        self._assign_initial_ownership()

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
        target_tick = self.world.tick + ticks
        while self.world.tick < target_tick:
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
            f"<BraceRuntime workers={len(self.workers)} tick={self.world.tick} "
            f"agents={self.world.agent_count()}>"
        )
