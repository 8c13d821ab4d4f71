"""The socket cluster backend against the sequential oracle, bit for bit.

The cluster executor moves resident shards out of the driver's *machine*
(not just its process), but the delta protocol it speaks is the same —
so cluster runs must produce agent states bit-identical to
:class:`~repro.core.engine.SequentialEngine` and deterministic statistics
identical to a serial run on the evaluation models (fish, traffic, and the
non-local predator script with its second reduce pass), including across a
forced mid-run shard migration, and the configuration and provenance layers
must reflect the backend honestly.
"""

import pytest

from repro.api import Simulation
from repro.brace.config import BraceConfig
from repro.brace.runtime import BraceRuntime
from repro.brasil import compile_script
from repro.brasil.runner import build_script_world
from repro.core.engine import SequentialEngine
from repro.core.errors import BraceError
from repro.simulations.fish.fish import Fish
from repro.simulations.fish.workload import build_fish_world
from repro.simulations.predator.brasil_scripts import PREDATOR_NON_LOCAL_SCRIPT
from repro.simulations.traffic.workload import build_traffic_world

TICKS = 3


def build_world(model):
    if model == "fish":
        # The importable module-level Fish: dynamic classes cannot cross
        # a process (or node) boundary by reference.
        return build_fish_world(48, seed=7, fish_class=Fish)
    if model == "predator":
        # Bites stay non-local assignments: the second reduce pass runs.
        compiled = compile_script(PREDATOR_NON_LOCAL_SCRIPT, effect_inversion="off")
        return build_script_world(compiled, num_agents=60, seed=7)
    return build_traffic_world(seed=11, num_vehicles=80)


def model_config(model, executor, ticks):
    return BraceConfig(
        num_workers=4,
        ticks_per_epoch=ticks,
        check_visibility=False,
        executor=executor,
        max_workers=2,
        non_local_effects=model == "predator",
    )


def run_model(model, executor, ticks=TICKS):
    world = build_world(model)
    with BraceRuntime(world, model_config(model, executor, ticks)) as runtime:
        runtime.run(ticks)
        return world, runtime.metrics


def sequential_reference(model, ticks=TICKS):
    world = build_world(model)
    SequentialEngine(world).run(ticks)
    return world


#: Tick statistics that must match across backends (wall clock excluded).
DETERMINISTIC_TICK_FIELDS = (
    "tick",
    "num_agents",
    "bytes_replicated",
    "bytes_effects",
    "bytes_migrated",
    "replicas_created",
    "agents_migrated",
    "num_passes",
    "spawned",
    "killed",
    "virtual_seconds",
)


@pytest.mark.slow
class TestClusterEquivalence:
    @pytest.mark.parametrize("executor", ["process", "cluster"])
    @pytest.mark.parametrize("model", ["fish", "traffic", "predator"])
    def test_states_bit_identical_to_sequential(self, model, executor):
        world, metrics = run_model(model, executor)
        assert world.same_state_as(sequential_reference(model), tolerance=0.0)
        assert metrics.ticks[0].num_passes == (3 if model == "predator" else 2)

    def test_statistics_identical_to_serial(self):
        _, serial_metrics = run_model("traffic", "serial")
        _, cluster_metrics = run_model("traffic", "cluster")
        assert len(cluster_metrics.ticks) == TICKS
        for serial_tick, cluster_tick in zip(serial_metrics.ticks, cluster_metrics.ticks):
            for field in DETERMINISTIC_TICK_FIELDS:
                assert getattr(serial_tick, field) == getattr(cluster_tick, field), field

    def test_socket_bytes_measured_every_tick(self):
        _, metrics = run_model("traffic", "cluster")
        assert all(tick.ipc_bytes_sent > 0 for tick in metrics.ticks)
        assert all(tick.ipc_bytes_received > 0 for tick in metrics.ticks)


@pytest.mark.slow
class TestForcedMigrationEquivalence:
    @pytest.mark.parametrize("model", ["fish", "traffic"])
    def test_mid_run_migration_stays_bit_identical(self, model):
        cluster_world = build_world(model)
        with BraceRuntime(cluster_world, model_config(model, "cluster", 6)) as runtime:
            runtime.run(3)
            shard_id = 0
            source = runtime.executor.shard_node(shard_id)
            destination = (source + 1) % 2
            moved_bytes = runtime.migrate_shard(shard_id, destination)
            assert moved_bytes > 0
            assert runtime.executor.shard_node(shard_id) == destination
            runtime.run(3)
        assert cluster_world.same_state_as(sequential_reference(model, 6), tolerance=0.0)

    def test_migrate_shard_requires_cluster_backend(self):
        world = build_traffic_world(seed=11, num_vehicles=40)
        config = BraceConfig(num_workers=2, executor="serial")
        with BraceRuntime(world, config) as runtime:
            with pytest.raises(BraceError, match="cluster"):
                runtime.migrate_shard(0, 1)


class TestClusterConfigValidation:
    def test_cluster_defaults_validate(self):
        BraceConfig(executor="cluster").validate()

    def test_bad_node_count_rejected(self):
        with pytest.raises(BraceError, match="max_workers"):
            BraceConfig(executor="cluster", max_workers=0).validate()

    def test_bad_listen_address_rejected(self):
        with pytest.raises(BraceError, match="cluster_listen"):
            BraceConfig(executor="cluster", cluster_listen="nonsense").validate()

    def test_heartbeat_timeout_must_exceed_interval(self):
        with pytest.raises(BraceError, match="heartbeat"):
            BraceConfig(
                executor="cluster",
                heartbeat_interval_seconds=2.0,
                heartbeat_timeout_seconds=1.0,
            ).validate()


class TestClusterProvenance:
    def test_provenance_records_resolved_node_topology(self):
        result = (
            Simulation.from_agents(build_traffic_world(seed=3, num_vehicles=40))
            .with_executor("cluster")
            .with_nodes(2, heartbeat_interval=0.1)
            .with_workers(2)
            .run(2)
        )
        assert result.provenance.backend == "cluster"
        nodes = result.provenance.nodes
        assert nodes is not None and len(nodes) == 2
        hosted = [shard for record in nodes for shard in record["shards"]]
        assert sorted(hosted) == [0, 1]
        for record in nodes:
            assert record["pid"] > 0
            assert record["spawned"] is True

    def test_single_host_backends_record_no_topology(self):
        result = (
            Simulation.from_agents(build_traffic_world(seed=3, num_vehicles=40))
            .with_workers(2)
            .run(2)
        )
        assert result.provenance.nodes is None
