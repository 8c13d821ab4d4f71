"""Virtual-time cost model combining per-worker compute and communication.

A tick in the distributed runtime finishes when the slowest worker finishes:
its compute time plus the time spent sending and receiving replicas and
effect partials, plus any per-pass synchronisation barriers.  The cost model
aggregates the per-worker measurements the BRACE runtime collects into a
tick-level virtual time and running totals, from which throughput in
agent-ticks per second is derived.

Every byte count flowing in here is charged from the columnar frame-size
formulas of :mod:`repro.ipc.sizing` — the same sizes the executors measure
as real ``ipc_bytes_*`` traffic — so the figure-6 virtual time and the
bytes observed on a cluster socket are directly comparable, and the same
:class:`NetworkModel` that prices these transfers also scores the cluster
backend's physical shard placement (:mod:`repro.cluster.placement`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.cluster.network import NetworkModel

if TYPE_CHECKING:  # annotation-only: keeps ``-m repro.cluster.node`` clean
    from repro.cluster._simnode import SimulatedNode

#: Work units charged per owned agent for the map phase (migration and
#: replication checks) and for the update phase, on top of the query
#: phase's measured work units.
MAP_WORK_UNITS_PER_AGENT = 1.0
UPDATE_WORK_UNITS_PER_AGENT = 2.0


@dataclass
class WorkerTickCost:
    """Raw per-worker measurements for one tick."""

    worker_id: int
    work_units: float = 0.0
    bytes_sent: int = 0
    bytes_received: int = 0
    remote_messages: int = 0
    agents_owned: int = 0
    checkpoint_bytes: int = 0
    comm_seconds: float = 0.0

    def add_send(self, num_bytes: int, remote: bool, seconds: float = 0.0) -> None:
        """Record an outgoing transfer (``seconds`` from the network model)."""
        if remote:
            self.bytes_sent += num_bytes
            self.remote_messages += 1
            self.comm_seconds += seconds

    def add_receive(self, num_bytes: int, remote: bool, seconds: float = 0.0) -> None:
        """Record an incoming transfer (``seconds`` from the network model)."""
        if remote:
            self.bytes_received += num_bytes
            self.comm_seconds += seconds


@dataclass
class TickCostBreakdown:
    """Virtual-time breakdown of one tick."""

    tick: int
    compute_seconds: float
    communication_seconds: float
    synchronization_seconds: float
    checkpoint_seconds: float
    total_seconds: float
    agents_processed: int
    max_worker_seconds: float
    min_worker_seconds: float

    @property
    def imbalance(self) -> float:
        """Ratio between the slowest and fastest worker's tick time (>= 1)."""
        if self.min_worker_seconds <= 0:
            return float("inf") if self.max_worker_seconds > 0 else 1.0
        return self.max_worker_seconds / self.min_worker_seconds


@dataclass
class ClusterCostModel:
    """Aggregates per-worker tick costs into virtual elapsed time.

    Parameters
    ----------
    network:
        The :class:`NetworkModel` describing latency/bandwidth/topology.
    nodes:
        One :class:`SimulatedNode` per worker.
    barrier_seconds:
        Fixed synchronisation cost charged once per MapReduce pass per tick
        (two reduce passes therefore pay it twice), reflecting the
        coordination of shuffle boundaries.
    """

    network: NetworkModel
    nodes: list[SimulatedNode]
    barrier_seconds: float = 250e-6
    history: list[TickCostBreakdown] = field(default_factory=list)

    def node(self, worker_id: int) -> SimulatedNode:
        """Return the node backing ``worker_id``."""
        return self.nodes[worker_id]

    def tick_cost(
        self,
        tick: int,
        worker_costs: list[WorkerTickCost],
        num_passes: int = 1,
    ) -> TickCostBreakdown:
        """Convert per-worker measurements into the tick's virtual time."""
        per_worker_seconds = []
        compute_total = 0.0
        comm_total = 0.0
        checkpoint_total = 0.0
        agents = 0
        for cost in worker_costs:
            node = self.node(cost.worker_id)
            compute = node.compute_seconds(cost.work_units)
            if cost.comm_seconds > 0:
                # Per-transfer times from the network model (topology-aware).
                comm = cost.comm_seconds
            else:
                comm = (
                    (cost.bytes_sent + cost.bytes_received)
                    / self.network.bandwidth_bytes_per_second
                    + cost.remote_messages * self.network.latency_seconds
                )
            checkpoint = node.checkpoint_seconds(cost.checkpoint_bytes)
            per_worker_seconds.append(compute + comm + checkpoint)
            compute_total += compute
            comm_total += comm
            checkpoint_total += checkpoint
            agents += cost.agents_owned

        synchronization = self.barrier_seconds * max(1, num_passes)
        max_worker = max(per_worker_seconds) if per_worker_seconds else 0.0
        min_worker = min(per_worker_seconds) if per_worker_seconds else 0.0
        breakdown = TickCostBreakdown(
            tick=tick,
            compute_seconds=compute_total,
            communication_seconds=comm_total,
            synchronization_seconds=synchronization,
            checkpoint_seconds=checkpoint_total,
            total_seconds=max_worker + synchronization,
            agents_processed=agents,
            max_worker_seconds=max_worker,
            min_worker_seconds=min_worker,
        )
        self.history.append(breakdown)
        return breakdown

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def total_virtual_seconds(self) -> float:
        """Virtual time accumulated over every recorded tick."""
        return sum(breakdown.total_seconds for breakdown in self.history)

    def total_agent_ticks(self) -> int:
        """Total agent-ticks processed over every recorded tick."""
        return sum(breakdown.agents_processed for breakdown in self.history)

    def throughput(self, skip_ticks: int = 0) -> float:
        """Agent-ticks per virtual second, optionally discarding warm-up ticks."""
        history = self.history[skip_ticks:]
        seconds = sum(breakdown.total_seconds for breakdown in history)
        agent_ticks = sum(breakdown.agents_processed for breakdown in history)
        if seconds <= 0:
            return 0.0
        return agent_ticks / seconds

    def reset(self) -> None:
        """Clear the recorded history and network totals."""
        self.history.clear()
        self.network.reset_totals()
