"""Checkpointing and recovery across a real process boundary.

Coordinated checkpoints pull state out of the resident shards, ``recover()``
restores the driver's world and re-seeds the shards, and the recovered run
must match an uninterrupted :class:`~repro.core.engine.SequentialEngine` run
bit for bit.
"""

import os
import signal
import socket
import subprocess
import sys

import pytest

from repro.brace.checkpoint import FailureInjector
from repro.brace.config import BraceConfig
from repro.brace.runtime import BraceRuntime
from repro.core.engine import SequentialEngine
from repro.core.errors import ExecutorError
from repro.core.soa import states_equal
from repro.simulations.traffic.workload import build_traffic_world

SEED = 17
VEHICLES = 60
TOTAL_TICKS = 8


def build_world():
    """The deterministic traffic world every run in this module starts from."""
    return build_traffic_world(seed=SEED, num_vehicles=VEHICLES)


def make_config(executor, **overrides):
    """Checkpoint-every-epoch configuration (epoch = 2 ticks)."""
    return BraceConfig(
        num_workers=3,
        ticks_per_epoch=2,
        check_visibility=False,
        load_balance=False,
        checkpointing=True,
        checkpoint_interval_epochs=1,
        executor=executor,
        max_workers=2,
        **overrides,
    )


def reference_world():
    """An uninterrupted sequential run to TOTAL_TICKS (the ground truth)."""
    world = build_world()
    SequentialEngine(world).run(TOTAL_TICKS)
    return world


@pytest.fixture(scope="module")
def serial_reference():
    return reference_world()


class TestProcessCheckpointRecovery:
    def test_recover_reseeds_shards_and_matches_serial(self, serial_reference):
        world = build_world()
        with BraceRuntime(world, make_config("process")) as runtime:
            runtime.run(5)  # checkpoints at ticks 2 and 4
            ticks_lost = runtime.recover()
            assert ticks_lost == 1
            assert world.tick == 4
            # Ownership was rebuilt from the restored world.
            assert sum(runtime.owned_counts()) == world.agent_count()
            runtime.run(TOTAL_TICKS - world.tick)
        assert world.tick == TOTAL_TICKS
        assert world.same_state_as(serial_reference, tolerance=0.0)

    def test_run_with_failures_on_process_backend_matches_serial(self, serial_reference):
        world = build_world()
        injector = FailureInjector(0.25, seed=3)
        with BraceRuntime(world, make_config("process")) as runtime:
            runtime.run_with_failures(TOTAL_TICKS, injector)
        assert world.tick == TOTAL_TICKS
        assert world.same_state_as(serial_reference, tolerance=0.0)

    def test_checkpoints_record_bytes_and_epoch_ipc(self):
        world = build_world()
        with BraceRuntime(world, make_config("process")) as runtime:
            runtime.run(4)
            epochs = runtime.metrics.epochs
            assert len(epochs) == 2
            assert all(epoch.checkpointed for epoch in epochs)
            assert all(epoch.checkpoint_bytes > 0 for epoch in epochs)
            # Pulling state out of the shards is measured epoch traffic.
            assert all(epoch.ipc_bytes > 0 for epoch in epochs)


class TestProcessNodeLoss:
    """A SIGKILLed forked node is supervised like any other lost node.

    The process backend shares the cluster's client and host, so a dead
    node costs only its own shards: the slot is refilled by a fresh fork,
    the survivor rewinds from its checkpoint stash in place, and the run
    ends bit-identical to the sequential engine.
    """

    def test_sigkill_mid_run_recovers_partially_and_bit_identical(self, serial_reference):
        world = build_world()
        with BraceRuntime(world, make_config("process")) as runtime:
            runtime.run(5)  # checkpoints at ticks 2 and 4
            pids_before = dict(runtime.executor.node_pids())
            os.kill(pids_before[1], signal.SIGKILL)
            # run() absorbs the supervised loss: recover + re-execute.
            runtime.run(TOTAL_TICKS - world.tick)
            (loss,) = [e for e in runtime.fault_events if e["event"] == "node_loss"]
            assert loss["node"] == 1 and loss["pid"] == pids_before[1]
            assert loss["action"] == "respawned"
            (recovered,) = [e for e in runtime.fault_events if e["event"] == "recovered"]
            assert recovered["partial"] is True  # survivors rewound in place
            pids_after = runtime.executor.node_pids()
            # The survivor kept its process; only the dead slot changed.
            assert pids_after[0] == pids_before[0]
            assert pids_after[1] != pids_before[1]
        assert world.tick == TOTAL_TICKS
        assert world.same_state_as(serial_reference, tolerance=0.0)

    def test_node_loss_without_a_checkpoint_raises_the_recovery_error(self):
        world = build_world()
        with BraceRuntime(world, make_config("process")) as runtime:
            runtime.run(1)  # the first checkpoint lands at tick 2
            os.kill(runtime.executor.node_pids()[0], signal.SIGKILL)
            with pytest.raises(ExecutorError, match="recover from the last checkpoint"):
                runtime.run(TOTAL_TICKS - world.tick)


class TestSettingsTravelWithTheSeed:
    """The run-wide settings ride each shard's seed, so a shard rebuilt by
    a migration or rewound in place from its checkpoint stash runs with
    them.  The linear scan charges ``len(extent)`` per probe and the grid
    does not, so a rebuilt worker that fell back to a default backend
    shows in the per-tick work units."""

    @staticmethod
    def record_work(runtime, ticks, units):
        for stats in runtime.supervised_ticks(ticks):
            units[stats.tick] = stats.query_work_units_per_worker

    def test_migration_and_in_place_recovery_keep_the_settings(self):
        serial_world, serial_units = build_world(), {}
        serial_config = make_config("serial", spatial_backend="python")
        with BraceRuntime(serial_world, serial_config) as runtime:
            self.record_work(runtime, TOTAL_TICKS, serial_units)

        world, units = build_world(), {}
        with BraceRuntime(world, make_config("process", spatial_backend="python")) as runtime:
            self.record_work(runtime, 3, units)  # checkpoint at tick 2
            # Move one of two shards sharing a node to the other node.
            home, shards = next(
                (record["node"], record["shards"])
                for record in runtime.executor.node_topology()
                if len(record["shards"]) > 1
            )
            runtime.migrate_shard(shards[0], 1 - home)
            self.record_work(runtime, 2, units)  # the moved shard stashes at tick 4
            # Kill the node it left: the moved shard is a survivor and
            # rewinds from its own stash; the killed node's are re-seeded.
            os.kill(runtime.executor.node_pids()[home], signal.SIGKILL)
            self.record_work(runtime, TOTAL_TICKS - world.tick, units)
            (loss,) = [e for e in runtime.fault_events if e["event"] == "node_loss"]
            assert loss["lost_shards"] and shards[0] not in loss["lost_shards"]
            (recovered,) = [e for e in runtime.fault_events if e["event"] == "recovered"]
            assert recovered["partial"] is True
        assert units == serial_units
        assert states_equal(
            {agent.agent_id: agent.state_dict() for agent in world.agents()},
            {agent.agent_id: agent.state_dict() for agent in serial_world.agents()},
        )


@pytest.mark.slow
class TestClusterNodeFailureRecovery:
    """A killed cluster node is a *machine* failure, not a pool hiccup.

    The heartbeat detector must turn a SIGKILLed node process into the
    recoverable :class:`ExecutorError` every wire executor raises, so the
    one checkpoint-recover path handles both failure domains — and the
    recovered run must still match the serial ground truth bit for bit.
    """

    def cluster_config(self):
        # A tight heartbeat so the test detects the kill in well under a
        # second instead of the production ten.
        return make_config(
            "cluster",
            heartbeat_interval_seconds=0.1,
            heartbeat_timeout_seconds=1.5,
        )

    def test_node_kill_mid_run_recovers_bit_identical(self, serial_reference):
        world = build_world()
        with BraceRuntime(world, self.cluster_config()) as runtime:
            runtime.run(5)  # checkpoints at ticks 2 and 4
            victim_pid = runtime.executor.node_pids()[1]
            os.kill(victim_pid, signal.SIGKILL)
            with pytest.raises(ExecutorError, match="recover from the last checkpoint"):
                # The tick may need a few protocol rounds to trip over the
                # dead socket; the heartbeat timeout bounds the wait.
                for _ in range(10):
                    runtime.run_tick()
            ticks_lost = runtime.recover()
            assert ticks_lost >= 0
            assert world.tick == 4
            # Recovery respawned the dead node and re-seeded every shard.
            assert sum(runtime.owned_counts()) == world.agent_count()
            runtime.run(TOTAL_TICKS - world.tick)
        assert world.tick == TOTAL_TICKS
        assert world.same_state_as(serial_reference, tolerance=0.0)

    def test_run_with_failures_on_cluster_backend_matches_serial(self, serial_reference):
        world = build_world()
        injector = FailureInjector(0.25, seed=3)
        with BraceRuntime(world, self.cluster_config()) as runtime:
            runtime.run_with_failures(TOTAL_TICKS, injector)
        assert world.tick == TOTAL_TICKS
        assert world.same_state_as(serial_reference, tolerance=0.0)


def _free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _start_node(port):
    """An external node that retries connecting until the driver listens."""
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
            "0.1",
            "--retry-seconds",
            "30",
        ],
        env=env,
    )


@pytest.mark.slow
class TestSupervisedNodeLoss:
    """Node death degrades the cluster instead of tearing it down.

    Each path — respawn (spawned mode), re-admission (an external
    replacement dials in) and rehoming (no replacement, survivors absorb
    the lost shards) — must end bit-identical to the uninterrupted
    serial run, and the survivors must keep their resident state (same
    node process, no re-seed) throughout.
    """

    def cluster_config(self, **overrides):
        return make_config(
            "cluster",
            heartbeat_interval_seconds=0.1,
            heartbeat_timeout_seconds=1.5,
            **overrides,
        )

    def test_respawn_recovers_without_survivor_teardown(self, serial_reference):
        world = build_world()
        with BraceRuntime(world, self.cluster_config()) as runtime:
            runtime.run(5)  # checkpoints at ticks 2 and 4
            pids_before = dict(runtime.executor.node_pids())
            os.kill(pids_before[1], signal.SIGKILL)
            # run() absorbs the supervised loss: recover + re-execute.
            runtime.run(TOTAL_TICKS - world.tick)
            events = runtime.fault_events
            loss = next(e for e in events if e["event"] == "node_loss")
            assert loss["node"] == 1
            assert loss["action"] == "respawned"
            recovered = next(e for e in events if e["event"] == "recovered")
            assert recovered["partial"] is True  # survivors rewound in place
            pids_after = runtime.executor.node_pids()
            # The survivor kept its process; only the dead slot changed.
            assert pids_after[0] == pids_before[0]
            assert pids_after[1] != pids_before[1]
        assert world.tick == TOTAL_TICKS
        assert world.same_state_as(serial_reference, tolerance=0.0)

    def test_external_replacement_is_readmitted(self, serial_reference):
        port = _free_port()
        nodes = [_start_node(port), _start_node(port)]
        world = build_world()
        try:
            config = self.cluster_config(
                cluster_listen=f"127.0.0.1:{port}",
                cluster_spawn=False,
                readmission_timeout_seconds=20.0,
            )
            with BraceRuntime(world, config) as runtime:
                runtime.run(5)
                pids_before = dict(runtime.executor.node_pids())
                victim = next(
                    index
                    for index, node in enumerate(nodes)
                    if node.pid == pids_before[1]
                )
                nodes[victim].kill()
                # The replacement dials in while the degraded driver holds
                # its listener open for readmission_timeout seconds.
                nodes.append(_start_node(port))
                runtime.run(TOTAL_TICKS - world.tick)
                loss = next(
                    e for e in runtime.fault_events if e["event"] == "node_loss"
                )
                assert loss["action"] == "readmitted"
                pids_after = runtime.executor.node_pids()
                assert pids_after[0] == pids_before[0]
                assert pids_after[1] == nodes[-1].pid
            assert world.tick == TOTAL_TICKS
            assert world.same_state_as(serial_reference, tolerance=0.0)
        finally:
            for node in nodes:
                node.kill()
            for node in nodes:
                node.wait(timeout=10)

    def test_no_replacement_rehomes_onto_survivors(self, serial_reference):
        port = _free_port()
        nodes = [_start_node(port), _start_node(port)]
        world = build_world()
        try:
            config = self.cluster_config(
                cluster_listen=f"127.0.0.1:{port}",
                cluster_spawn=False,
                readmission_timeout_seconds=0.0,  # rehome immediately
            )
            with BraceRuntime(world, config) as runtime:
                runtime.run(5)
                pids_before = dict(runtime.executor.node_pids())
                victim = next(
                    index
                    for index, node in enumerate(nodes)
                    if node.pid == pids_before[1]
                )
                nodes[victim].kill()
                runtime.run(TOTAL_TICKS - world.tick)
                loss = next(
                    e for e in runtime.fault_events if e["event"] == "node_loss"
                )
                assert loss["action"] == "rehomed"
                # Every shard now lives on the lone survivor.
                topology = runtime.executor.node_topology()
                assert len(topology) == 1
                assert topology[0]["pid"] == pids_before[0]
                assert sorted(topology[0]["shards"]) == [0, 1, 2]
            assert world.tick == TOTAL_TICKS
            assert world.same_state_as(serial_reference, tolerance=0.0)
        finally:
            for node in nodes:
                node.kill()
            for node in nodes:
                node.wait(timeout=10)

    @pytest.mark.parametrize("kill_tick", range(1, TOTAL_TICKS))
    def test_sigkill_at_every_tick_stays_bit_identical(
        self, kill_tick, serial_reference
    ):
        # The acceptance sweep: whatever tick the kill lands on — before
        # the first checkpoint, on a checkpoint boundary, mid-epoch — the
        # outcome is never a silently wrong state: either the supervised
        # run converges to the serial ground truth, or (only before the
        # first checkpoint exists) it raises the documented recovery error.
        world = build_world()
        with BraceRuntime(world, self.cluster_config()) as runtime:
            runtime.run(kill_tick)
            os.kill(runtime.executor.node_pids()[0], signal.SIGKILL)
            try:
                runtime.run(TOTAL_TICKS - world.tick)
            except ExecutorError:
                # Absorbing a loss needs a checkpoint; the first lands at
                # tick 2.  Any raise after that is a real failure.
                assert kill_tick < 2
                return
            assert any(
                event["event"] == "node_loss" for event in runtime.fault_events
            )
        assert world.tick == TOTAL_TICKS
        assert world.same_state_as(serial_reference, tolerance=0.0)
