"""Configuration of the BRACE runtime."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.context import SPATIAL_BACKENDS
from repro.core.errors import BraceError


@dataclass
class BraceConfig:
    """Every knob of the BRACE runtime.

    Parameters mirror the design choices described in Section 3.3 of the
    paper: number of workers, epoch length, how the query phase's spatial
    join executes, whether the model needs the second reduce pass (non-local
    effects), load balancing and checkpointing.

    The cluster-model parameters at the bottom control the virtual-time cost
    model used for the scale-up experiments.
    """

    # Parallelism and partitioning --------------------------------------
    num_workers: int = 4
    partitioning: str = "strip"  # "strip" (1-D, load-balanceable) or "grid"
    grid_cells: Sequence[int] | None = None  # for "grid": cells per dimension
    load_balance_axis: int = 0

    # Execution backend ---------------------------------------------------
    #: Where the worker shards live: "serial" (inline, the default) and
    #: "thread" (a shared thread pool) host them in the driver's process and
    #: hand deltas over by reference; "process" (node processes forked
    #: over socketpairs) and "cluster" (node processes that dial in over
    #: TCP, spawnable on other machines — see the cluster knobs below) are
    #: the same wire executor and ship deltas as columnar frames, so agent
    #: classes must be importable by name there.
    executor: str = "serial"
    #: Parallel task slots for the thread/process executors.  ``None`` uses
    #: ``min(num_workers, cpu count)``.
    max_workers: int | None = None

    # Cluster backend (executor="cluster") --------------------------------
    #: Number of node processes hosting the shards.
    cluster_nodes: int = 2
    #: Address the driver listens on for node connections.  Port 0 picks a
    #: free port; nodes on other machines connect with
    #: ``python -m repro.cluster.node --connect host:port``.
    cluster_listen: str = "127.0.0.1:0"
    #: Auto-spawn ``cluster_nodes`` localhost node subprocesses.  ``False``
    #: waits for externally started nodes to dial in instead.
    cluster_spawn: bool = True
    #: Seconds between a node's liveness frames.
    heartbeat_interval_seconds: float = 0.5
    #: Seconds of frame silence after which the driver declares a node dead
    #: and routes the run into checkpoint recovery.
    heartbeat_timeout_seconds: float = 10.0
    #: Shared cluster secret: arms HMAC-SHA256 frame authentication on every
    #: driver<->node link (challenge–response hello, per-frame MACs).
    #: **Mandatory** when ``cluster_listen`` names a non-loopback address —
    #: an open listener would otherwise admit any process that can reach the
    #: port.  Spawned nodes inherit it via the ``REPRO_CLUSTER_SECRET``
    #: environment variable; external nodes read the same variable or a
    #: ``--secret-file``.  Scrubbed from provenance records.
    cluster_secret: str | None = None
    #: How long a degraded driver holds its listener open for a replacement
    #: node after one dies (spawned clusters respawn immediately instead).
    #: ``0`` skips re-admission and rehomes the lost shards straight onto
    #: the surviving nodes.
    readmission_timeout_seconds: float = 10.0

    # Iteration structure ------------------------------------------------
    ticks_per_epoch: int = 10
    non_local_effects: bool = False  # run the second reduce pass

    # Query-phase execution ----------------------------------------------
    check_visibility: bool = True
    #: How the query phase's spatial joins execute: ``"vectorized"`` (the
    #: columnar grid — one position snapshot per worker per tick, every
    #: probe answered in a handful of array ops) or ``"python"`` (a linear
    #: scan of the extent per probe: the "no indexing" baseline and the
    #: oracle the grid is checked against).  Every shard runs this value;
    #: agent states are bit-identical across the two, only the speed and
    #: the work charged differ.
    spatial_backend: str = "vectorized"
    #: How BRASIL query/update plans execute: ``"interpreted"`` (the
    #: reference per-agent AST walk), ``"compiled"`` (whole-phase columnar
    #: kernels — effect aggregation as ``np.ufunc.at`` scatter-reductions
    #: over the spatial join's match lists, update rules as column math
    #: over a structure-of-arrays snapshot) or ``None`` for automatic
    #: selection (compiled wherever the plan compiler can *prove* the
    #: kernel bit-identical, interpreted otherwise).  Constructs outside
    #: the provable subset — ``rand()`` in a phase, nested ``foreach``,
    #: loop-carried locals, ``collect`` effects, hand-written agent
    #: classes — fall back to the interpreter per worker-phase, so states
    #: are bit-identical across backends; only the speed differs.
    plan_backend: str | None = None

    # Load balancing -------------------------------------------------------
    load_balance: bool = True
    load_balance_threshold: float = 1.25  # imbalance ratio that triggers a repartition
    #: Cost of migrating one agent, expressed in "agent-ticks of work" — moving
    #: an agent is roughly an order of magnitude cheaper than simulating it
    #: for the epoch the new partitioning will last.
    migration_cost_per_agent: float = 0.1

    # Fault tolerance -------------------------------------------------------
    checkpointing: bool = False
    checkpoint_interval_epochs: int = 1

    # Randomness ------------------------------------------------------------
    seed: int | None = None  # defaults to the world's seed

    # Cluster cost model ------------------------------------------------------
    work_units_per_second: float = 2_000_000.0
    bandwidth_bytes_per_second: float = 125_000_000.0
    latency_seconds: float = 100e-6
    nodes_per_switch: int = 20
    inter_switch_penalty: float = 1.6
    barrier_seconds: float = 250e-6
    update_work_units_per_agent: float = 2.0
    map_work_units_per_agent: float = 1.0

    def validate(self) -> None:
        """Raise :class:`BraceError` when the configuration is inconsistent.

        Called from :class:`~repro.brace.runtime.BraceRuntime` and from every
        ``with_*`` step of the :class:`repro.api.Simulation` builder, so a
        bad knob fails at configuration time with an actionable message
        instead of surfacing as a deep ``KeyError`` mid-run.
        """
        if self.num_workers < 1:
            raise BraceError("num_workers must be at least 1")
        if self.ticks_per_epoch < 1:
            raise BraceError("ticks_per_epoch must be at least 1")
        if self.partitioning not in ("strip", "grid"):
            raise BraceError(
                f"unknown partitioning scheme {self.partitioning!r}; "
                "expected 'strip' (1-D, load-balanceable) or 'grid'"
            )
        if self.partitioning == "grid" and self.grid_cells is None:
            raise BraceError(
                "grid partitioning requires grid_cells (cells per dimension, "
                "e.g. grid_cells=(2, 2) for num_workers=4)"
            )
        if self.partitioning == "strip" and self.grid_cells is not None:
            raise BraceError(
                "grid_cells only applies to partitioning='grid' "
                "(strip partitionings split a single axis into num_workers strips)"
            )
        if self.partitioning == "grid":
            if not self.grid_cells or any(int(cells) < 1 for cells in self.grid_cells):
                raise BraceError(
                    "grid_cells must be a non-empty sequence of positive cell "
                    f"counts, got {tuple(self.grid_cells)!r}"
                )
            total = 1
            for cells in self.grid_cells:
                total *= int(cells)
            if total != self.num_workers:
                raise BraceError(
                    "the product of grid_cells must equal num_workers "
                    f"({total} != {self.num_workers})"
                )
        if self.executor not in ("serial", "thread", "process", "cluster"):
            raise BraceError(
                f"unknown executor {self.executor!r}; "
                "expected 'serial', 'thread', 'process' or 'cluster'"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise BraceError("max_workers must be at least 1 (or None for automatic)")
        if self.executor == "cluster":
            if self.cluster_nodes < 1:
                raise BraceError("cluster_nodes must be at least 1")
            host, _, port = self.cluster_listen.rpartition(":")
            if not host or not port.isdigit():
                raise BraceError(
                    f"cluster_listen must be HOST:PORT, got {self.cluster_listen!r}"
                )
            if not self.heartbeat_interval_seconds > 0:
                raise BraceError("heartbeat_interval_seconds must be positive")
            if not self.heartbeat_timeout_seconds > self.heartbeat_interval_seconds:
                raise BraceError(
                    "heartbeat_timeout_seconds must exceed heartbeat_interval_seconds "
                    "(otherwise every slow phase reads as a dead node)"
                )
            if self.readmission_timeout_seconds < 0:
                raise BraceError(
                    "readmission_timeout_seconds must be >= 0 "
                    "(0 rehomes lost shards onto survivors immediately)"
                )
            from repro.cluster.auth import is_loopback

            if self.cluster_secret is None and not is_loopback(host):
                raise BraceError(
                    f"cluster_listen={self.cluster_listen!r} is reachable from "
                    "other machines; set cluster_secret so the driver only "
                    "admits nodes that prove knowledge of the shared secret "
                    "(loopback listeners may run without one)"
                )
        if self.spatial_backend not in SPATIAL_BACKENDS:
            raise BraceError(
                f"unknown spatial backend {self.spatial_backend!r}; expected "
                "'vectorized' (the columnar grid) or 'python' (the linear scan)"
            )
        if self.plan_backend not in (None, "interpreted", "compiled"):
            raise BraceError(
                f"unknown plan backend {self.plan_backend!r}; expected "
                "'interpreted', 'compiled' or None for automatic selection"
            )
        if self.load_balance_axis < 0:
            raise BraceError("load_balance_axis must be a non-negative dimension index")
        if self.load_balance_threshold < 1.0:
            raise BraceError(
                "load_balance_threshold is the max/min owned-agents ratio that "
                f"triggers a repartition and must be >= 1.0, got {self.load_balance_threshold}"
            )
        if self.migration_cost_per_agent < 0:
            raise BraceError("migration_cost_per_agent must be >= 0")
        if self.checkpoint_interval_epochs < 1:
            raise BraceError("checkpoint_interval_epochs must be at least 1")
        for name in (
            "work_units_per_second",
            "bandwidth_bytes_per_second",
            "inter_switch_penalty",
        ):
            if not getattr(self, name) > 0:
                raise BraceError(f"{name} must be positive, got {getattr(self, name)!r}")
        for name in ("latency_seconds", "barrier_seconds"):
            if getattr(self, name) < 0:
                raise BraceError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        if self.nodes_per_switch < 1:
            raise BraceError("nodes_per_switch must be at least 1")
