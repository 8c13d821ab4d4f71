"""Which public callables the tracer wraps, and the per-layer metrics.

Layer = module name.  Every number here comes from one of three outside
sources: spans on public callables (driver process only), the statistics
the runtime already returns (``BraceTickStatistics``, ``EpochStatistics``,
``RunResult`` — the only view into pool processes and cluster nodes), or a
*probe*: calling a layer's public function directly on the run's final
agents after the window.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.brace import replication
from repro.brace.checkpoint import CheckpointManager
from repro.brace.master import Master
from repro.brace.metrics import BraceTickStatistics, EpochStatistics
from repro.brace.runtime import BraceRuntime
from repro.brace.worker import Worker
from repro.brasil import compiler, kernels
from repro.cluster import protocol
from repro.cluster.auth import derive_session_key
from repro.cluster.client import ClusterExecutor
from repro.core.context import QueryContext
from repro.core.soa import AgentTable
from repro.history.recorder import HistoryRecorder
from repro.history.store import HistoryStore
from repro.ipc.frames import ColumnarCodec, pack_agents, unpack_agents
from repro.mapreduce.executor import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
)
from repro.spatial import columnar

from bench.trace import LayerRow, Target
from bench.workloads import CLUSTER_SECRET

EXECUTOR_CLASSES = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
    "process": ProcessExecutor,
    "cluster": ClusterExecutor,
}

def _pairs(result) -> int:
    """Match rows a batch join returned: ``(probe_ids, match_rows, examined)``."""
    return len(result[1])


def setup_targets() -> list[Target]:
    """Wrapped around the measured set-up only (they never run in a tick).

    The executor does not exist before set-up, so ``init_shards`` is wrapped
    on every class that defines one.
    """
    return [Target(compiler, "compile_script", "brasil.compile")] + [
        Target(cls, "init_shards", "mapreduce.init_shards")
        for cls in (Executor, ProcessExecutor, ClusterExecutor)
    ]


def tick_targets(executor: str, agent_classes: Sequence[type]) -> list[Target]:
    """Wrapped on traced ticks of the window."""
    executor_class = EXECUTOR_CLASSES[executor]
    targets = [
        Target(BraceRuntime, "run_tick", "brace.run_tick"),
        # In-place ticks run the map phase inline in run_tick; its one public
        # per-agent call is replication_targets.  Worker.distribute is the
        # resident form (in this process only for in-process residency).
        Target(Worker, "distribute", "brace.distribute"),
        Target(replication, "replication_targets", "brace.distribute"),
        Target(Worker, "run_query_phase", "brace.query_phase"),
        Target(Worker, "run_update_phase", "brace.update_phase"),
        Target(Master, "end_of_epoch", "brace.epoch_decision"),
        Target(CheckpointManager, "take", "brace.checkpoint"),
        Target(executor_class, "run_tasks", "mapreduce.round"),
        Target(executor_class, "run_sharded_tasks", "mapreduce.round"),
        Target(QueryContext, "visible", "core.visible"),
        Target(QueryContext, "neighbors", "core.neighbors"),
        Target(AgentTable, "__init__", "core.soa_pack"),
        Target(AgentTable, "writeback", "core.soa_writeback"),
        Target(AgentTable, "row_of", "core.row_of", kind="count"),
        Target(columnar.PointSet, "__init__", "spatial.snapshot"),
        Target(columnar.VectorizedGrid, "batch_range_query", "spatial.join", measure=_pairs),
        Target(columnar.VectorizedGrid, "batch_radius_query", "spatial.join", measure=_pairs),
        Target(columnar, "batch_neighbor_lists", "spatial.join"),
        Target(columnar.PointSet, "take", "spatial.take", kind="count"),
        Target(kernels.QueryKernel, "run", "brasil.query_kernel"),
        Target(kernels.UpdateKernel, "run", "brasil.update_kernel"),
        # A hit is a phase the kernels ran whole: the query attempt returns
        # True, the update attempt returns no agents left to interpret.
        Target(kernels, "try_compiled_query_phase", "brasil.kernel_phase", "count", bool),
        Target(
            kernels,
            "try_compiled_update_phase",
            "brasil.kernel_phase",
            "count",
            lambda remaining: not remaining,
        ),
        Target(HistoryRecorder, "record", "history.record"),
        Target(HistoryStore, "write_checkpoint", "history.checkpoint"),
    ]
    for cls in agent_classes:
        targets.append(Target(cls, "query", "core.agent_query"))
        targets.append(Target(cls, "update", "core.agent_update"))
    return targets


# ----------------------------------------------------------------------
# Probes
# ----------------------------------------------------------------------
def _median_seconds(call: Callable[[], Any], repeats: int = 3) -> float:
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        timings.append(time.perf_counter() - start)
    return statistics.median(timings)


def probe_codec(agents: Sequence[Any]) -> tuple[float, float]:
    """``(encode, decode)`` MB/s of the columnar codec on ``agents``."""
    codec = ColumnarCodec()
    blob = codec.encode(pack_agents(agents))
    megabytes = len(blob) / 1e6
    encode = _median_seconds(lambda: codec.encode(pack_agents(agents)))
    decode = _median_seconds(lambda: unpack_agents(codec.decode(blob)))
    return megabytes / encode, megabytes / decode


def probe_seal_open(frame_bytes: int, rounds: int = 200) -> float:
    """MB/s of one authenticated frame's pack+seal -> open+unpack round trip."""
    key = derive_session_key(CLUSTER_SECRET, "00" * 16)
    blob = bytes(max(1, frame_bytes))
    direction = protocol.DIRECTION_TO_NODE

    def round_trips() -> None:
        for seq in range(rounds):
            body = protocol.pack_message("task", {"shard": 0}, blob)
            sealed = protocol.seal_payload(body, seq=seq, direction=direction, key=key)
            opened = protocol.open_payload(sealed, seq=seq, direction=direction, key=key)
            protocol.unpack_message(opened)

    return len(blob) * rounds / 1e6 / _median_seconds(round_trips)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
@dataclass
class TracedWindow:
    """Everything the per-layer metrics are derived from."""

    tick_rows: dict[str, LayerRow]
    setup_rows: dict[str, LayerRow]
    counts: dict[str, float]
    traced_ticks: int
    #: Sum of the traced ticks' inter-event samples (for ``api.session_self_s``).
    traced_seconds: float
    tick_stats: list[BraceTickStatistics]
    epoch_stats: list[EpochStatistics]
    fault_events: int
    executor: str
    final_agents: Sequence[Any]
    #: Timed reads of the store after close (empty without history).
    history_reads: dict[str, float] = field(default_factory=dict)


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(window: TracedWindow) -> tuple[dict[str, float], list[str]]:
    """``(metrics, absent)``: per-layer values and the names that could not
    be observed from the driver (reported as 0 but listed as absent)."""
    rows, counts = window.tick_rows, window.counts
    ticks = max(1, window.traced_ticks)
    stats = window.tick_stats
    # Shards in other processes: phases are invisible to spans, and timed
    # by the shards themselves in the tick statistics.
    remote = window.executor in ("process", "cluster")

    def row(name: str) -> LayerRow:
        return rows.get(name, LayerRow())

    def per_tick(name: str) -> float:
        return row(name).total / ticks

    def per_event(name: str) -> float:
        found = row(name)
        return found.total / found.count if found.count else 0.0

    metrics: dict[str, float] = {}
    run_tick = row("brace.run_tick")
    metrics["api.session_self_s"] = max(0.0, window.traced_seconds - run_tick.total) / ticks

    # brace ------------------------------------------------------------
    metrics["brace.run_tick_s"] = run_tick.total / ticks
    metrics["brace.driver_self_s"] = run_tick.self_seconds / ticks
    if remote:
        # Shard-side phases, as the shards timed them (summed over shards).
        query = [sum(s.query_seconds_per_worker) for s in stats]
        update = [sum(s.update_seconds_per_worker) for s in stats]
        compute = [s.ipc_compute_seconds for s in stats]
        metrics["brace.query_phase_s"] = _mean(query)
        metrics["brace.update_phase_s"] = _mean(update)
        metrics["brace.distribute_s"] = max(0.0, _mean(compute) - _mean(query) - _mean(update))
    else:
        metrics["brace.query_phase_s"] = per_tick("brace.query_phase")
        metrics["brace.update_phase_s"] = per_tick("brace.update_phase")
        metrics["brace.distribute_s"] = per_tick("brace.distribute")
    metrics["brace.epoch_decision_s"] = per_event("brace.epoch_decision")
    metrics["brace.checkpoint_s"] = per_event("brace.checkpoint")
    metrics["brace.checkpoint_bytes"] = _mean(
        [e.checkpoint_bytes for e in window.epoch_stats if e.checkpointed]
    )
    metrics["brace.replicas_per_tick"] = _mean([s.replicas_created for s in stats])
    metrics["brace.migrations_per_tick"] = _mean([s.agents_migrated for s in stats])
    metrics["brace.effect_bytes_per_tick"] = _mean([s.bytes_effects for s in stats])

    # mapreduce --------------------------------------------------------
    rounds = row("mapreduce.round")
    metrics["mapreduce.round_s"] = rounds.total / rounds.count if rounds.count else 0.0
    metrics["mapreduce.rounds_per_tick"] = rounds.count / ticks
    metrics["mapreduce.query_imbalance"] = _mean([s.query_wall_imbalance for s in stats])
    metrics["mapreduce.init_shards_s"] = window.setup_rows.get(
        "mapreduce.init_shards", LayerRow()
    ).total

    # core / spatial / brasil: spans in this process ----------------------
    metrics["core.visible_s"] = per_tick("core.visible")
    metrics["core.visible_calls"] = row("core.visible").count / ticks
    metrics["core.neighbors_s"] = per_tick("core.neighbors")
    metrics["core.neighbors_calls"] = row("core.neighbors").count / ticks
    metrics["core.soa_pack_s"] = per_tick("core.soa_pack")
    metrics["core.soa_writeback_s"] = per_tick("core.soa_writeback")
    metrics["core.row_of_calls"] = counts.get("core.row_of.calls", 0) / ticks
    metrics["core.agent_query_s"] = per_tick("core.agent_query")
    metrics["core.agent_update_s"] = per_tick("core.agent_update")
    metrics["spatial.snapshot_s"] = per_tick("spatial.snapshot")
    metrics["spatial.join_s"] = per_tick("spatial.join")
    metrics["spatial.pairs_per_tick"] = counts.get("spatial.join", 0) / ticks
    metrics["spatial.take_calls"] = counts.get("spatial.take.calls", 0) / ticks
    metrics["brasil.compile_s"] = window.setup_rows.get("brasil.compile", LayerRow()).total
    metrics["brasil.query_kernel_s"] = per_tick("brasil.query_kernel")
    metrics["brasil.query_kernel_self_s"] = row("brasil.query_kernel").self_seconds / ticks
    metrics["brasil.update_kernel_s"] = per_tick("brasil.update_kernel")
    attempts = counts.get("brasil.kernel_phase.calls", 0)
    metrics["brasil.kernel_hit_ratio"] = (
        counts.get("brasil.kernel_phase", 0) / attempts if attempts else 0.0
    )
    absent = []
    if remote:
        absent = [
            name
            for name in metrics
            if name.startswith(("core.", "spatial.", "brasil."))
            and name != "brasil.compile_s"
        ]

    # ipc --------------------------------------------------------------
    metrics["ipc.serialize_s"] = _mean([s.ipc_serialize_seconds for s in stats])
    metrics["ipc.transport_s"] = _mean([s.ipc_transport_seconds for s in stats])
    metrics["ipc.compute_s"] = _mean([s.ipc_compute_seconds for s in stats])
    metrics["ipc.wait_s"] = _mean([s.ipc_wait_seconds for s in stats])
    metrics["ipc.bytes_sent_per_tick"] = _mean([s.ipc_bytes_sent for s in stats])
    metrics["ipc.bytes_received_per_tick"] = _mean([s.ipc_bytes_received for s in stats])
    tick_bytes = sum(s.ipc_bytes_total for s in stats)
    replicas = sum(s.replicas_created for s in stats)
    metrics["ipc.bytes_per_replica"] = tick_bytes / replicas if replicas else 0.0
    metrics["ipc.encode_mb_per_s"] = metrics["ipc.decode_mb_per_s"] = 0.0
    if tick_bytes:
        encode, decode = probe_codec(window.final_agents)
        metrics["ipc.encode_mb_per_s"], metrics["ipc.decode_mb_per_s"] = encode, decode

    # cluster ----------------------------------------------------------
    on_cluster = window.executor == "cluster"
    metrics["cluster.seal_open_mb_per_s"] = 0.0
    if on_cluster and tick_bytes:
        # Per tick: three rounds, a command and a reply per shard.
        shards = len(stats[0].query_seconds_per_worker)
        frames = len(stats) * 3 * 2 * max(1, shards)
        metrics["cluster.seal_open_mb_per_s"] = probe_seal_open(tick_bytes // frames)
    metrics["cluster.epoch_bytes_per_tick"] = (
        sum(e.ipc_bytes for e in window.epoch_stats) / len(stats)
        if on_cluster and stats
        else 0.0
    )
    metrics["cluster.fault_events"] = float(window.fault_events) if on_cluster else 0.0

    # history ----------------------------------------------------------
    metrics["history.record_s"] = per_tick("history.record")
    metrics["history.checkpoint_s"] = per_event("history.checkpoint")
    for name in ("state_at_s", "state_at_replay_s", "series_s"):
        metrics[f"history.{name}"] = window.history_reads.get(name, 0.0)
    return metrics, absent


def layer_table(rows: dict[str, LayerRow]) -> list[dict[str, Any]]:
    """Rows of the printed layer table, largest total first."""
    run_tick = rows.get("brace.run_tick", LayerRow()).total
    return [
        {
            "span": name,
            "count": found.count,
            "total_s": found.total,
            "self_s": found.self_seconds,
            "share_of_run_tick": found.total / run_tick if run_tick else 0.0,
        }
        for name, found in sorted(rows.items(), key=lambda item: -item[1].total)
    ]
