"""Network model for the simulated cluster.

The model is intentionally simple — a per-message latency plus a per-byte
transfer cost — but it captures the two effects the paper's evaluation
depends on:

* communication volume matters: replication traffic and non-local effect
  traffic slow a tick down in proportion to the bytes crossing node
  boundaries, while collocated (same-node) transfers are free;
* topology matters: nodes attached to different switches pay an inter-switch
  penalty on both latency and bandwidth, reproducing the throughput dip the
  paper observes once the job no longer fits on a single switch (Figure 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class NetworkTotals:
    """Running totals of simulated network usage."""

    messages: int = 0
    bytes_sent: int = 0
    local_messages: int = 0
    local_bytes: int = 0

    def merge(self, other: "NetworkTotals") -> None:
        """Accumulate another totals object into this one."""
        self.messages += other.messages
        self.bytes_sent += other.bytes_sent
        self.local_messages += other.local_messages
        self.local_bytes += other.local_bytes


@dataclass
class NetworkModel:
    """Cost model for messages between simulated nodes.

    Parameters
    ----------
    latency_seconds:
        Fixed cost per message between distinct nodes on the same switch.
    bandwidth_bytes_per_second:
        Link bandwidth for same-switch transfers (1 Gbit/s by default,
        matching the paper's cluster).
    nodes_per_switch:
        How many nodes share a switch; node ``i`` lives on switch
        ``i // nodes_per_switch``.
    inter_switch_penalty:
        Multiplier (> 1) applied to both latency and transfer time when the
        endpoints live on different switches.
    """

    latency_seconds: float = 100e-6
    bandwidth_bytes_per_second: float = 125_000_000.0
    nodes_per_switch: int = 20
    inter_switch_penalty: float = 1.6
    totals: NetworkTotals = field(default_factory=NetworkTotals)

    def switch_of(self, node_id: int) -> int:
        """Return the switch hosting ``node_id``."""
        return int(node_id) // max(1, int(self.nodes_per_switch))

    def same_switch(self, src: int, dst: int) -> bool:
        """True when both nodes hang off the same switch."""
        return self.switch_of(src) == self.switch_of(dst)

    def transfer_seconds(self, src: int, dst: int, num_bytes: int, messages: int = 1) -> float:
        """Simulated time to move ``num_bytes`` from ``src`` to ``dst``.

        Transfers within a node are collocated and cost nothing (the paper's
        collocation optimization routes them through memory).
        """
        if src == dst:
            self.totals.local_messages += messages
            self.totals.local_bytes += num_bytes
            return 0.0
        penalty = 1.0 if self.same_switch(src, dst) else self.inter_switch_penalty
        self.totals.messages += messages
        self.totals.bytes_sent += num_bytes
        latency = self.latency_seconds * messages * penalty
        transfer = num_bytes / self.bandwidth_bytes_per_second * penalty
        return latency + transfer

    def reset_totals(self) -> None:
        """Zero the running usage totals."""
        self.totals = NetworkTotals()
