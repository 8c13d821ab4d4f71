"""The one-dimensional load balancer.

The BRACE prototype uses "a simple rectilinear grid partitioning scheme" and
"a one-dimensional load balancer [that] periodically receives statistics from
the slave nodes ... and heuristically computes a new partition trying to
balance improved performance against estimated migration cost" (Section 5.1).

This module reproduces that component for strip partitionings: it looks at
the distribution of agents along the balancing axis, proposes strip
boundaries that equalise the number of owned agents, estimates the benefit
(reduction of the per-tick makespan, which is proportional to the largest
owned set) and the migration cost (agents changing owner), and recommends a
repartitioning when the benefit outweighs the cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import LoadBalanceError
from repro.spatial.partitioning import StripPartitioning


@dataclass
class LoadBalanceDecision:
    """The balancer's recommendation for an epoch boundary."""

    rebalance: bool
    new_partitioning: StripPartitioning | None
    imbalance_before: float
    imbalance_after: float
    agents_to_migrate: int
    estimated_benefit: float
    estimated_cost: float


class OneDimensionalLoadBalancer:
    """Periodically recomputes strip boundaries from owned-agent statistics.

    Parameters
    ----------
    threshold:
        Minimum imbalance ratio (largest owned set / average owned set)
        before a repartitioning is even considered.
    migration_cost_per_agent:
        Cost, in the same unit as the benefit estimate (owned agents per
        tick), charged for every agent that changes owner.  The default
        says moving an agent is roughly an order of magnitude cheaper than
        simulating it for the epoch the new partitioning will last.
    ticks_to_amortize:
        Over how many future ticks the benefit is assumed to persist; the
        paper amortizes rebalancing over an epoch.
    """

    def __init__(
        self,
        threshold: float = 1.25,
        migration_cost_per_agent: float = 0.1,
        ticks_to_amortize: int = 10,
    ):
        if threshold < 1.0:
            raise LoadBalanceError("threshold must be >= 1.0")
        self.threshold = threshold
        self.migration_cost_per_agent = migration_cost_per_agent
        self.ticks_to_amortize = max(1, ticks_to_amortize)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @staticmethod
    def imbalance(owned_counts: list[int]) -> float:
        """Largest owned set divided by the mean owned set (>= 1 when balanced)."""
        if not owned_counts or sum(owned_counts) == 0:
            return 1.0
        mean = sum(owned_counts) / len(owned_counts)
        if mean == 0:
            return float("inf")
        return max(owned_counts) / mean

    @staticmethod
    def balanced_boundaries(
        coordinates: list[float], num_strips: int, bounds_lo: float, bounds_hi: float
    ) -> list[float]:
        """Strip boundaries that split ``coordinates`` into equal-count groups."""
        if num_strips < 1:
            raise LoadBalanceError("need at least one strip")
        if num_strips == 1:
            return []
        ordered = sorted(coordinates)
        count = len(ordered)
        boundaries: list[float] = []
        previous = bounds_lo
        for strip in range(1, num_strips):
            rank = int(round(strip * count / num_strips))
            rank = min(max(rank, 1), count - 1) if count > 1 else 0
            if count == 0:
                # No agents: fall back to uniform boundaries.
                candidate = bounds_lo + (bounds_hi - bounds_lo) * strip / num_strips
            else:
                candidate = (ordered[rank - 1] + ordered[min(rank, count - 1)]) / 2.0
            # Boundaries must be strictly increasing and strictly inside the bounds.
            epsilon = (bounds_hi - bounds_lo) * 1e-9 + 1e-12
            candidate = max(candidate, previous + epsilon)
            candidate = min(candidate, bounds_hi - epsilon * (num_strips - strip))
            boundaries.append(candidate)
            previous = candidate
        return boundaries

    # ------------------------------------------------------------------
    # Decision
    # ------------------------------------------------------------------
    def decide(
        self,
        partitioning: StripPartitioning,
        agent_coordinates: list[float],
    ) -> LoadBalanceDecision:
        """Decide whether to repartition given the agents' balancing-axis coordinates."""
        num_strips = partitioning.num_partitions()
        owned_counts = self._counts(partitioning, agent_coordinates)
        imbalance_before = self.imbalance(owned_counts)

        lo, hi = partitioning.bounds.intervals[partitioning.axis]
        new_boundaries = self.balanced_boundaries(agent_coordinates, num_strips, lo, hi)
        new_partitioning = partitioning.with_boundaries(new_boundaries)
        new_counts = self._counts(new_partitioning, agent_coordinates)
        imbalance_after = self.imbalance(new_counts)

        migrations = self._migrations(partitioning, new_partitioning, agent_coordinates)
        # Benefit: reduction in the per-tick makespan (proportional to the
        # largest owned set), accumulated over the ticks the new partitioning
        # is expected to last.
        benefit = (max(owned_counts, default=0) - max(new_counts, default=0)) * float(
            self.ticks_to_amortize
        )
        cost = migrations * self.migration_cost_per_agent

        rebalance = (
            imbalance_before > self.threshold
            and imbalance_after < imbalance_before
            and benefit > cost
        )
        return LoadBalanceDecision(
            rebalance=rebalance,
            new_partitioning=new_partitioning if rebalance else None,
            imbalance_before=imbalance_before,
            imbalance_after=imbalance_after,
            agents_to_migrate=migrations,
            estimated_benefit=benefit,
            estimated_cost=cost,
        )

    @staticmethod
    def _counts(partitioning: StripPartitioning, coordinates: list[float]) -> list[int]:
        counts = [0] * partitioning.num_partitions()
        axis = partitioning.axis
        dim = partitioning.bounds.dim
        for coordinate in coordinates:
            point = [0.0] * dim
            point[axis] = coordinate
            counts[partitioning.partition_of(point)] += 1
        return counts

    @staticmethod
    def _migrations(
        old: StripPartitioning, new: StripPartitioning, coordinates: list[float]
    ) -> int:
        axis = old.axis
        dim = old.bounds.dim
        migrations = 0
        for coordinate in coordinates:
            point = [0.0] * dim
            point[axis] = coordinate
            if old.partition_of(point) != new.partition_of(point):
                migrations += 1
        return migrations
