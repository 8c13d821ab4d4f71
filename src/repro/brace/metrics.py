"""Throughput and epoch statistics for BRACE runs."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mapreduce.executor import wall_clock_imbalance


@dataclass
class BraceTickStatistics:
    """Measurements for one distributed tick."""

    tick: int
    num_agents: int
    virtual_seconds: float
    wall_seconds: float
    compute_seconds: float
    communication_seconds: float
    synchronization_seconds: float
    bytes_replicated: int
    bytes_effects: int
    bytes_migrated: int
    replicas_created: int
    agents_migrated: int
    max_worker_agents: int
    min_worker_agents: int
    num_passes: int
    spawned: int = 0
    killed: int = 0
    #: Executor backend that ran the worker phases ("serial", "thread", "process").
    executor: str = "serial"
    #: Measured bytes the driver actually shipped to shards this tick
    #: (encoded frame sizes; 0 on memory-sharing backends).  Unlike the
    #: modeled ``bytes_*`` fields these are real bytes on the wire, so they
    #: are *not* part of the cross-backend determinism contract.
    ipc_bytes_sent: int = 0
    #: Measured bytes shards shipped back to the driver this tick.
    ipc_bytes_received: int = 0
    #: Measured seconds spent encoding/decoding shard payloads and results
    #: this tick, both ends summed over the three rounds.  Like the
    #: ``ipc_bytes_*`` measurements (and unlike the modeled ``*_seconds``
    #: fields above), the phase breakdown is real wall clock, so it is *not*
    #: part of the cross-backend determinism contract.
    ipc_serialize_seconds: float = 0.0
    #: Measured seconds the driver spent writing encoded command frames to
    #: the nodes' sockets (0 by reference).
    ipc_transport_seconds: float = 0.0
    #: Measured seconds of shard task bodies, summed across workers.
    ipc_compute_seconds: float = 0.0
    #: Measured round residual: wall clock not covered by serialization,
    #: transport, or the slowest task — synchronization and the replies'
    #: trip back.
    ipc_wait_seconds: float = 0.0
    #: Wall-clock seconds each worker's query phase took, indexed by worker id.
    query_seconds_per_worker: list[float] = field(default_factory=list)
    #: Work units each worker's query phase charged, indexed by worker id.
    query_work_units_per_worker: list[float] = field(default_factory=list)
    #: Wall-clock seconds each worker's update phase took, indexed by worker id.
    update_seconds_per_worker: list[float] = field(default_factory=list)

    @property
    def agent_ticks(self) -> int:
        """Agent-ticks processed during this tick."""
        return self.num_agents

    @property
    def imbalance(self) -> float:
        """Ratio of the largest to the smallest owned set (>= 1)."""
        if self.min_worker_agents <= 0:
            return float("inf") if self.max_worker_agents > 0 else 1.0
        return self.max_worker_agents / self.min_worker_agents

    @property
    def query_wall_imbalance(self) -> float:
        """Max-over-mean wall-clock ratio across the workers' query phases.

        The observable form of load imbalance: 1.0 means every partition's
        query phase took equally long; large values mean stragglers dominate
        the tick (the condition the Figure 7/8 load balancer reacts to).
        """
        return wall_clock_imbalance(self.query_seconds_per_worker)

    @property
    def update_wall_imbalance(self) -> float:
        """Max-over-mean wall-clock ratio across the workers' update phases."""
        return wall_clock_imbalance(self.update_seconds_per_worker)

    @property
    def ipc_bytes_total(self) -> int:
        """Measured driver<->shard bytes for this tick (both directions)."""
        return self.ipc_bytes_sent + self.ipc_bytes_received

    @property
    def ipc_overhead_seconds(self) -> float:
        """Non-compute IPC seconds this tick (serialize + transport + wait)."""
        return (
            self.ipc_serialize_seconds
            + self.ipc_transport_seconds
            + self.ipc_wait_seconds
        )


@dataclass
class EpochStatistics:
    """Measurements for one epoch (a fixed number of ticks)."""

    epoch: int
    first_tick: int
    ticks: int
    virtual_seconds: float
    wall_seconds: float
    agent_ticks: int
    rebalanced: bool
    checkpointed: bool
    checkpoint_bytes: int
    agents_migrated_by_balancer: int
    #: Measured driver<->shard bytes spent on epoch-boundary coordination
    #: (boundary flush, coordinate pull, repartition moves, checkpoint sync).
    ipc_bytes: int = 0
    #: Per-phase IPC seconds summed over the epoch's ticks (measured wall
    #: clock, not part of the determinism contract — see the tick fields).
    ipc_serialize_seconds: float = 0.0
    ipc_transport_seconds: float = 0.0
    ipc_compute_seconds: float = 0.0
    ipc_wait_seconds: float = 0.0

    @property
    def seconds_per_epoch(self) -> float:
        """Virtual time this epoch took (the y-axis of Figure 8)."""
        return self.virtual_seconds


@dataclass
class BraceRunMetrics:
    """Accumulated statistics for a whole BRACE run."""

    ticks: list[BraceTickStatistics] = field(default_factory=list)
    epochs: list[EpochStatistics] = field(default_factory=list)
    #: Measured driver<->shard bytes spent pulling full world state outside
    #: epoch boundaries (end-of-run sync, on-demand ``sync_world`` calls).
    sync_ipc_bytes: int = 0

    def add_tick(self, stats: BraceTickStatistics) -> None:
        """Record one tick."""
        self.ticks.append(stats)

    def add_sync_ipc(self, num_bytes: int) -> None:
        """Record measured bytes of an out-of-band world sync."""
        self.sync_ipc_bytes += num_bytes

    def add_epoch(self, stats: EpochStatistics) -> None:
        """Record one epoch."""
        self.epochs.append(stats)

    @property
    def total_virtual_seconds(self) -> float:
        """Virtual time across all recorded ticks."""
        return sum(t.virtual_seconds for t in self.ticks)

    @property
    def total_wall_seconds(self) -> float:
        """Wall-clock time across all recorded ticks."""
        return sum(t.wall_seconds for t in self.ticks)

    @property
    def total_agent_ticks(self) -> int:
        """Agent-ticks across all recorded ticks."""
        return sum(t.agent_ticks for t in self.ticks)

    def throughput(self, skip_ticks: int = 0) -> float:
        """Agent-ticks per virtual second (the paper's scale-up metric).

        ``skip_ticks`` discards start-up transients, as the paper does.
        """
        ticks = self.ticks[skip_ticks:]
        seconds = sum(t.virtual_seconds for t in ticks)
        agent_ticks = sum(t.agent_ticks for t in ticks)
        if seconds <= 0:
            return 0.0
        return agent_ticks / seconds

    def wall_throughput(self, skip_ticks: int = 0) -> float:
        """Agent-ticks per wall-clock second."""
        ticks = self.ticks[skip_ticks:]
        seconds = sum(t.wall_seconds for t in ticks)
        agent_ticks = sum(t.agent_ticks for t in ticks)
        if seconds <= 0:
            return 0.0
        return agent_ticks / seconds

    def epoch_times(self) -> list[float]:
        """Virtual seconds per epoch, in epoch order (Figure 8's series)."""
        return [epoch.virtual_seconds for epoch in self.epochs]

    def total_bytes_over_network(self) -> int:
        """Replication + effect + migration bytes that crossed node boundaries."""
        return sum(t.bytes_replicated + t.bytes_effects + t.bytes_migrated for t in self.ticks)

    def total_ipc_bytes(self) -> int:
        """Measured driver<->shard bytes across every tick and epoch boundary.

        Real pickled payload/result sizes (not the cost model's estimates);
        0 unless the run used a backend that crosses a process boundary.
        Includes per-tick rounds, epoch-boundary coordination and
        out-of-band world syncs.
        """
        tick_bytes = sum(t.ipc_bytes_total for t in self.ticks)
        return tick_bytes + sum(e.ipc_bytes for e in self.epochs) + self.sync_ipc_bytes

    def mean_ipc_bytes_per_tick(self, skip_ticks: int = 0) -> float:
        """Average measured driver<->shard bytes per tick (epoch traffic excluded)."""
        ticks = self.ticks[skip_ticks:]
        if not ticks:
            return 0.0
        return sum(t.ipc_bytes_total for t in ticks) / len(ticks)

    def ipc_phase_breakdown(self, skip_ticks: int = 0) -> dict[str, float]:
        """Summed per-tick IPC phase seconds: serialize/transport/compute/wait.

        The observable form of the wire's cost structure: encoding and
        decoding land in ``serialize``, the socket sends of the commands in
        ``transport``, and whatever of a round neither they nor the slowest
        task explain in ``wait``.  All measured wall clock — compare across
        runs, not across backends' determinism contract.
        """
        ticks = self.ticks[skip_ticks:]
        return {
            "serialize": sum(t.ipc_serialize_seconds for t in ticks),
            "transport": sum(t.ipc_transport_seconds for t in ticks),
            "compute": sum(t.ipc_compute_seconds for t in ticks),
            "wait": sum(t.ipc_wait_seconds for t in ticks),
        }

    def mean_query_wall_imbalance(self, skip_ticks: int = 0) -> float:
        """Average per-tick query-phase wall-clock imbalance (load-skew indicator)."""
        ticks = self.ticks[skip_ticks:]
        if not ticks:
            return 1.0
        return sum(t.query_wall_imbalance for t in ticks) / len(ticks)
