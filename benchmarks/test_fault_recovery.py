"""Benchmark: how fast a supervised cluster run absorbs a node kill.

The robustness claim has a latency dimension: when a node is SIGKILLed
mid-run, the driver must detect the death (heartbeat timeout), supervise
the loss (retire, resync survivors, refill or rehome the slot), recover
from the last checkpoint (re-seeding only the lost shards — survivors
rewind in place from their local stash) and re-execute the lost ticks.
This benchmark measures the whole span — SIGKILL to the first completed
post-recovery tick — for both degradation paths:

``respawn``
    Spawned mode: the driver starts a fresh subprocess into the dead slot.
``rehome``
    External mode with no replacement: the lost shards are re-seeded onto
    the surviving node.

Both runs must still end bit-identical to the uninterrupted serial run —
a fast recovery that diverges is worthless.  The rows land in
``BENCH_faults.json`` for the CI chaos-smoke artifact.
"""

import os
import signal
import socket
import subprocess
import sys
import time

from benchmarks._bench_io import write_bench
from repro.brace.config import BraceConfig
from repro.brace.runtime import BraceRuntime
from repro.harness.common import format_table
from repro.simulations.traffic.workload import build_traffic_world

SEED = 23
VEHICLES = 80
TOTAL_TICKS = 8
KILL_AT_TICK = 5  # after the tick-4 checkpoint: one tick is re-executed
NUM_WORKERS = 3
HEARTBEAT_INTERVAL = 0.1
HEARTBEAT_TIMEOUT = 1.5


def build_world():
    return build_traffic_world(seed=SEED, num_vehicles=VEHICLES)


def make_config(**overrides) -> BraceConfig:
    return BraceConfig(
        num_workers=NUM_WORKERS,
        ticks_per_epoch=2,
        checkpointing=True,
        checkpoint_interval_epochs=1,
        load_balance=False,
        executor="cluster",
        max_workers=2,
        heartbeat_interval_seconds=HEARTBEAT_INTERVAL,
        heartbeat_timeout_seconds=HEARTBEAT_TIMEOUT,
        **overrides,
    )


def serial_reference():
    world = build_traffic_world(seed=SEED, num_vehicles=VEHICLES)
    config = BraceConfig(
        num_workers=NUM_WORKERS,
        ticks_per_epoch=2,
        checkpointing=True,
        checkpoint_interval_epochs=1,
        load_balance=False,
    )
    with BraceRuntime(world, config) as runtime:
        runtime.run(TOTAL_TICKS)
    return world


def _start_node(port):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(entry for entry in sys.path if entry)
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cluster.node",
            "--connect",
            f"127.0.0.1:{port}",
            "--heartbeat-interval",
            str(HEARTBEAT_INTERVAL),
            "--retry-seconds",
            "30",
        ],
        env=env,
    )


def measure_path(path, reference):
    """Kill a node at KILL_AT_TICK and time SIGKILL -> first new tick."""
    external = []
    port = None
    if path == "rehome":
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        external = [_start_node(port), _start_node(port)]
        config = make_config(
            cluster_listen=f"127.0.0.1:{port}",
            cluster_spawn=False,
            readmission_timeout_seconds=0.0,
        )
    else:
        config = make_config()
    world = build_world()
    try:
        with BraceRuntime(world, config) as runtime:
            runtime.run(KILL_AT_TICK)
            victim_pid = runtime.executor.node_pids()[1]
            killed_at = time.monotonic()
            os.kill(victim_pid, signal.SIGKILL)
            # run(1) detects the death, supervises, recovers and
            # re-executes up to the first genuinely new tick.
            runtime.run(1)
            recovery_seconds = time.monotonic() - killed_at
            runtime.run(TOTAL_TICKS - world.tick)
            loss = next(
                event
                for event in runtime.fault_events
                if event["event"] == "node_loss"
            )
            recovered = next(
                event
                for event in runtime.fault_events
                if event["event"] == "recovered"
            )
            assert loss["action"] == ("respawned" if path == "respawn" else "rehomed")
        assert world.tick == TOTAL_TICKS
        assert world.same_state_as(reference)
        return {
            "path": path,
            "action": loss["action"],
            "recovery_seconds": recovery_seconds,
            "supervision_seconds": loss["wall_seconds"],
            "ticks_reexecuted": recovered["ticks_lost"],
            "partial_recovery": recovered["partial"],
            "bit_identical": True,
        }
    finally:
        for node in external:
            node.kill()
        for node in external:
            node.wait(timeout=10)


def test_recovery_latency_both_paths(once):
    reference = serial_reference()

    def measure():
        return [measure_path(path, reference) for path in ("respawn", "rehome")]

    rows = once(measure)
    write_bench(
        "faults",
        rows,
        kill_at_tick=KILL_AT_TICK,
        total_ticks=TOTAL_TICKS,
        heartbeat_timeout_seconds=HEARTBEAT_TIMEOUT,
        workers=NUM_WORKERS,
    )
    print()
    print(
        format_table(
            ["Path", "SIGKILL -> next tick", "Supervision", "Re-executed", "Partial"],
            [
                [
                    row["path"],
                    f"{row['recovery_seconds']:.2f} s",
                    f"{row['supervision_seconds']:.2f} s",
                    row["ticks_reexecuted"],
                    "yes" if row["partial_recovery"] else "no",
                ]
                for row in rows
            ],
            title="Node-kill recovery latency "
            f"(heartbeat timeout {HEARTBEAT_TIMEOUT}s, kill at tick {KILL_AT_TICK})",
        )
    )
    for row in rows:
        assert row["bit_identical"]
        # Detection is bounded by the heartbeat timeout; supervision,
        # re-seeding and one re-executed tick ride on top.  A generous
        # ceiling catches only pathological regressions.
        assert row["recovery_seconds"] < 10 * HEARTBEAT_TIMEOUT + 30
