"""The BRACE master node.

The master only interacts with workers at *epoch* boundaries (Section 3.3):
it gathers per-worker statistics, decides whether to repartition through the
one-dimensional load balancer, triggers coordinated checkpoints, and
broadcasts any new partitioning for the workers to adopt at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.brace.checkpoint import CheckpointManager
from repro.brace.config import BraceConfig
from repro.brace.loadbalance import LoadBalanceDecision, OneDimensionalLoadBalancer
from repro.core.errors import BraceError
from repro.spatial.bbox import BBox
from repro.spatial.partitioning import (
    GridPartitioning,
    SpatialPartitioning,
    StripPartitioning,
)


@dataclass
class WorkerReport:
    """Statistics a worker sends to the master at an epoch boundary."""

    worker_id: int
    owned_agents: int
    work_units: float
    bytes_sent: int


@dataclass
class EpochDecision:
    """What the master decided at an epoch boundary."""

    epoch: int
    load_balance: LoadBalanceDecision | None
    checkpoint: bool
    reports: list[WorkerReport] = field(default_factory=list)


class Master:
    """Cluster coordinator: partitioning, load balancing, checkpoint scheduling."""

    def __init__(self, config: BraceConfig, bounds: BBox):
        if bounds is None:
            raise BraceError("BRACE requires a bounded world (World.bounds) to partition space")
        self.config = config
        self.bounds = bounds
        self.partitioning = self._initial_partitioning()
        self.load_balancer = OneDimensionalLoadBalancer(
            threshold=config.load_balance_threshold,
            ticks_to_amortize=config.ticks_per_epoch,
        )
        self.checkpoint_manager = CheckpointManager()
        self.epoch = 0
        self.decisions: list[EpochDecision] = []

    # ------------------------------------------------------------------
    # Partitioning
    # ------------------------------------------------------------------
    def _initial_partitioning(self) -> SpatialPartitioning:
        config = self.config
        if config.partitioning == "grid":
            return GridPartitioning(self.bounds, list(config.grid_cells))
        # Strips are cut, and rebalanced, along the first axis.
        return StripPartitioning.uniform(self.bounds, 0, config.num_workers)

    def can_rebalance(self) -> bool:
        """Load balancing is only implemented for strip partitionings."""
        return isinstance(self.partitioning, StripPartitioning)

    # ------------------------------------------------------------------
    # Epoch boundary
    # ------------------------------------------------------------------
    def end_of_epoch(
        self,
        reports: list[WorkerReport],
        agent_coordinates: list[float],
    ) -> EpochDecision:
        """Process an epoch boundary: maybe rebalance, maybe checkpoint."""
        self.epoch += 1
        balance_decision: LoadBalanceDecision | None = None
        if self.config.load_balance and self.can_rebalance():
            balance_decision = self.load_balancer.decide(self.partitioning, agent_coordinates)
            if balance_decision.rebalance and balance_decision.new_partitioning is not None:
                self.partitioning = balance_decision.new_partitioning

        checkpoint_now = (
            self.config.checkpointing
            and self.epoch % self.config.checkpoint_interval_epochs == 0
        )
        decision = EpochDecision(
            epoch=self.epoch,
            load_balance=balance_decision,
            checkpoint=checkpoint_now,
            reports=list(reports),
        )
        self.decisions.append(decision)
        return decision

    def rebalances_performed(self) -> int:
        """How many epoch boundaries actually changed the partitioning."""
        return sum(
            1
            for decision in self.decisions
            if decision.load_balance is not None and decision.load_balance.rebalance
        )
