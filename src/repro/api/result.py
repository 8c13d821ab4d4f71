"""The unified result type every :class:`~repro.api.Simulation` run returns.

Agent and script sessions alike return one :class:`RunResult`: final agent
states, the full run metrics, measured IPC bytes and a :class:`Provenance`
record that says exactly which model, configuration, seed and backend
produced the numbers — enough to reproduce the run bit for bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

from repro.brace.config import BraceConfig
from repro.brace.metrics import BraceRunMetrics
from repro.core.soa import states_equal


def script_sha256(source: str) -> str:
    """Content hash identifying a BRASIL script's exact source text."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Provenance:
    """Where a :class:`RunResult` came from — enough to reproduce it.

    Two runs with equal provenance (and the same package version) produce
    bit-identical final states regardless of the executor backend; the
    backend is still recorded because wall-clock and IPC measurements are
    backend-dependent even when the states are not.
    """

    #: ``"agents"`` (a world of Python agent objects) or ``"script"``
    #: (compiled from BRASIL source).
    source: str
    #: Agent class name(s) simulated, alphabetically sorted.
    model: tuple[str, ...]
    #: Executor backend the worker shards ran on
    #: ("serial"/"thread"/"process"/"cluster").
    backend: str
    #: Seed all run randomness derived from.
    seed: int
    #: The exact runtime configuration the session compiled down to, with
    #: ``seed`` resolved to the effective seed.  ``spatial_backend`` and
    #: ``plan_backend`` are the configured values, which every shard ran
    #: (:func:`repro.brasil.kernel_fallback_reasons` says which phases of
    #: a class run interpreted under ``"compiled"``).  Re-running with this
    #: config reproduces the run bit for bit.
    config: BraceConfig
    #: SHA-256 of the BRASIL source for script runs, None for agent runs.
    script_hash: str | None = None
    #: Where the script came from (path, or ``"<script>"`` for inline source).
    script_label: str | None = None
    #: Resolved node topology of a wire-executor run (process, cluster) —
    #: one record per attached node (index, address, pid, whether the
    #: driver started it, and the shards it hosted when the run finished);
    #: ``None`` for every by-reference backend.  Topology affects wall-clock and wire bytes,
    #: never states, so it is recorded but not part of the reproduction key.
    nodes: tuple | None = None

    def describe(self) -> str:
        """One human-readable line identifying the run."""
        model = "+".join(self.model) if self.model else "<empty world>"
        origin = f"script {self.script_hash[:12]}" if self.script_hash else "python agents"
        return (
            f"{model} from {origin} on {self.backend} "
            f"({self.config.num_workers} workers, seed {self.seed})"
        )


@dataclass
class RunResult:
    """Everything a finished (or paused) :class:`Simulation` run produced."""

    #: State of every agent at the end of the run, keyed by agent id.
    final_states: dict[Any, dict[str, Any]]
    #: Accumulated per-tick/per-epoch statistics for the whole session.
    metrics: BraceRunMetrics
    #: Number of ticks this session executed in total.
    ticks: int
    #: Model, configuration, seed and backend that produced this result.
    provenance: Provenance
    #: Epoch numbers at which coordinated checkpoints were taken.
    checkpoints_taken: list[int] = field(default_factory=list)
    #: Supervision log for cluster runs: one record per node loss
    #: (``event="node_loss"`` with the dead node, the shards it hosted and
    #: the action taken — respawned/readmitted/rehomed/lost) and per
    #: checkpoint recovery (``event="recovered"`` with the restored tick and
    #: how many ticks were re-executed).  Empty for undisturbed runs.
    fault_events: list[dict] = field(default_factory=list)
    #: Directory of the recorded tick history (``with_history(path)``), or
    #: None when the session ran without recording.  Open it with
    #: :meth:`repro.history.History.open` to time-travel the finished run.
    history_path: str | None = None

    @property
    def num_agents(self) -> int:
        """Number of agents alive at the end of the run."""
        return len(self.final_states)

    @property
    def ipc_bytes(self) -> int:
        """Measured driver<->shard bytes for the whole run.

        Real encoded frame sizes from the shard protocol; 0 for runs on
        memory-sharing backends (nothing crossed a process boundary).
        """
        return self.metrics.total_ipc_bytes()

    def throughput(self, skip_ticks: int = 0) -> float:
        """Agent-ticks per virtual second (the paper's scale-up unit)."""
        return self.metrics.throughput(skip_ticks)

    def wall_throughput(self, skip_ticks: int = 0) -> float:
        """Agent-ticks per wall-clock second."""
        return self.metrics.wall_throughput(skip_ticks)

    def bytes_over_network(self) -> int:
        """Modeled replication+effect+migration bytes that crossed nodes."""
        return self.metrics.total_bytes_over_network()

    def same_states_as(self, other: "RunResult") -> bool:
        """True when both runs ended with bit-identical agent states.

        Exact under :func:`repro.core.soa.states_equal`: float bit patterns
        (a NaN equals the same NaN, ``-0.0`` is not ``0.0``) and types.
        """
        return states_equal(self.final_states, other.final_states)

    def summary(self) -> str:
        """A short multi-line report of the run."""
        lines = [
            self.provenance.describe(),
            f"  {self.ticks} ticks, {self.num_agents} agents, "
            f"{self.throughput():,.0f} agent ticks/s (virtual)",
            f"  {self.bytes_over_network():,} modeled bytes over the network, "
            f"{self.ipc_bytes:,} measured IPC bytes",
        ]
        if self.checkpoints_taken:
            lines.append(f"  checkpoints at epochs {self.checkpoints_taken}")
        if self.fault_events:
            losses = sum(1 for e in self.fault_events if e.get("event") == "node_loss")
            lines.append(
                f"  {losses} node loss(es) absorbed "
                f"({len(self.fault_events)} fault events)"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<RunResult ticks={self.ticks} agents={self.num_agents} "
            f"backend={self.provenance.backend!r}>"
        )
