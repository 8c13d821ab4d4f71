"""Behavioural tests of the BRACE runtime: config, replication, metrics, epochs."""

import pytest

from repro.brace.config import BraceConfig
from repro.brace.replication import replication_targets
from repro.brace.runtime import BraceRuntime
from repro.brace.worker import Worker
from repro.cluster._simnode import SimulatedNode
from repro.cluster.network import NetworkModel
from repro.core.agent import Agent
from repro.core.errors import BraceError
from repro.core.fields import StateField
from repro.core.world import World
from repro.ipc import agent_frame_bytes
from repro.spatial.bbox import BBox
from repro.spatial.partitioning import StripPartitioning

from tests.conftest import Boid, SpawningAgent, make_boid_world


class Tally(Agent):
    """An agent without a spatial field: BRACE has no position to place it by."""

    count = StateField(0)

    def query(self, ctx):
        pass

    def update(self, ctx):
        self.count = self.count + 1


class TallyParent(Agent):
    """A placeable agent whose child, born at tick 1, is a :class:`Tally`."""

    x = StateField(0.0, spatial=True, visibility=5.0, reachability=1.0)
    y = StateField(0.0, spatial=True, visibility=5.0, reachability=1.0)

    def query(self, ctx):
        pass

    def update(self, ctx):
        if ctx.tick == 1:
            ctx.spawn(self, Tally())


def owned_ids(worker, _payload):
    """Shard task: the ids the resident worker owns."""
    return set(worker.owned)


class TestConfigValidation:
    def test_defaults_are_valid(self):
        BraceConfig().validate()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"num_workers": 0},
            {"ticks_per_epoch": 0},
            {"partitioning": "hilbert"},
            {"partitioning": "grid"},  # grid without grid_cells
            {"partitioning": "grid", "grid_cells": (2, 3), "num_workers": 4},
            {"spatial_backend": None},
            {"load_balance_threshold": 0.5},
            {"checkpoint_interval_epochs": 0},
        ],
    )
    def test_invalid_configurations_rejected(self, overrides):
        config = BraceConfig(**overrides)
        with pytest.raises(BraceError):
            config.validate()

    def test_world_without_bounds_rejected(self):
        world = World(bounds=None)
        with pytest.raises(BraceError):
            BraceRuntime(world, BraceConfig(num_workers=2))


class TestWireExecutorsReadTheConfig:
    """Both wire executors are built from the config's wire settings."""

    @pytest.mark.parametrize("executor", ["process", "cluster"])
    def test_wire_settings_reach_the_executor(self, executor):
        config = BraceConfig(
            num_workers=2,
            executor=executor,
            max_workers=2,
            heartbeat_interval_seconds=0.25,
            heartbeat_timeout_seconds=3.0,
            readmission_timeout_seconds=4.0,
        )
        # Nodes start at the first round; building the runtime starts none.
        with BraceRuntime(make_boid_world(num_agents=4, seed=0), config) as runtime:
            wire = runtime.executor
            assert (wire.heartbeat_interval, wire.heartbeat_timeout) == (0.25, 3.0)
            assert wire.readmission_timeout == 4.0
            # The placement model is the one that prices virtual time, and
            # both run on the models' own constants.
            assert wire.network is runtime.cost_model.network
            assert runtime.cost_model.network == NetworkModel()
            assert wire.max_workers == 2
            assert runtime.cost_model.nodes == [SimulatedNode(0), SimulatedNode(1)]

    @pytest.mark.parametrize("executor", ["process", "cluster"])
    def test_an_interval_not_below_the_timeout_is_rejected(self, executor):
        config = BraceConfig(
            executor=executor, heartbeat_interval_seconds=2.0, heartbeat_timeout_seconds=2.0
        )
        with pytest.raises(BraceError, match="heartbeat_timeout_seconds must exceed"):
            config.validate()


class TestReplication:
    def test_targets_include_owner_and_neighbours_within_visibility(self):
        world = make_boid_world(num_agents=1, seed=0)
        agent = world.agents()[0]
        agent.set_state_dict({"x": 30.5, "y": 30.0})  # just right of the 30.0 boundary
        partitioning = StripPartitioning.uniform(world.bounds, 0, 2)
        targets = replication_targets(agent, partitioning)
        assert set(targets) == {0, 1}

    def test_unbounded_visibility_replicates_everywhere(self):
        class Blind(Boid):
            pass

        Blind._state_fields = dict(Boid._state_fields)
        # Simulate a model without visibility bounds by overriding the radii.
        world = make_boid_world(num_agents=1, seed=0)
        agent = world.agents()[0]
        partitioning = StripPartitioning.uniform(world.bounds, 0, 4)
        original = type(agent).visibility_radii
        try:
            type(agent).visibility_radii = classmethod(lambda cls: (None, None))
            assert set(replication_targets(agent, partitioning)) == {0, 1, 2, 3}
        finally:
            type(agent).visibility_radii = original


class TestWorkerMechanics:
    def test_ownership_and_replicas(self):
        partitioning = StripPartitioning.uniform(BBox(((0.0, 60.0), (0.0, 60.0))), 0, 2)
        worker = Worker(0, partitioning.partition(0))
        agent = Boid(agent_id=1, x=5.0, y=5.0)
        worker.add_owned(agent)
        assert worker.owned_count() == 1
        worker.install_replica(Boid(agent_id=2, x=31.0, y=5.0))
        assert len(worker.replica_agents()) == 1
        removed = worker.remove_owned(1)
        assert removed is agent
        with pytest.raises(BraceError):
            worker.remove_owned(1)

    def test_merge_partials_requires_ownership(self):
        partitioning = StripPartitioning.uniform(BBox(((0.0, 60.0), (0.0, 60.0))), 0, 2)
        worker = Worker(0, partitioning.partition(0))
        with pytest.raises(BraceError):
            worker.merge_remote_partials(99, {"pull_x": 1.0})

    def test_checkpoint_sizes_follow_the_ownership_map(self):
        world = make_boid_world(num_agents=40, seed=3)
        runtime = BraceRuntime(world, BraceConfig(num_workers=4))
        runtime.run(3)
        single = agent_frame_bytes(world.agents()[0])
        assert runtime.checkpoint_sizes() == [
            count * single for count in runtime.owned_counts()
        ]
        assert sum(runtime.checkpoint_sizes()) == world.agent_count() * single


class TestRuntimeMetrics:
    def test_tick_statistics_populated(self):
        world = make_boid_world(num_agents=40, seed=3)
        runtime = BraceRuntime(world, BraceConfig(num_workers=4, ticks_per_epoch=2))
        stats = runtime.run_tick()
        assert stats.num_agents == 40
        assert stats.virtual_seconds > 0
        assert stats.replicas_created > 0
        assert stats.max_worker_agents >= stats.min_worker_agents
        assert stats.num_passes == 2

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_ownership_map_matches_the_shards(self, executor):
        world = make_boid_world(num_agents=60, seed=7, agent_class=SpawningAgent, size=30.0)
        config = BraceConfig(
            num_workers=3, executor=executor, max_workers=2, load_balance_threshold=1.01,
            ticks_per_epoch=2,
        )
        with BraceRuntime(world, config) as runtime:
            runtime.run(8)
            assert sum(tick.agents_migrated for tick in runtime.metrics.ticks) > 0
            assert sum(tick.spawned + tick.killed for tick in runtime.metrics.ticks) > 0
            # Births and deaths of the last tick are still pending: the next
            # round ships them, exactly as the next tick's map command would.
            runtime._flush_pending_boundary()
            shards = runtime.executor.run_sharded_tasks(
                [(shard_id, owned_ids, None) for shard_id in range(3)]
            )
            for shard in shards:
                expected = {
                    agent.agent_id
                    for agent in world.agents()
                    if runtime.worker_of(agent.agent_id) == shard.shard_id
                }
                assert shard.value == expected
                assert runtime.owned_counts()[shard.shard_id] == len(expected)
            assert sum(runtime.owned_counts()) == world.agent_count()

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_an_agent_without_a_spatial_field_is_refused(self, executor):
        world = make_boid_world(num_agents=4, seed=3)
        world.add_agent(Tally())
        config = BraceConfig(num_workers=2, executor=executor, max_workers=2)
        with pytest.raises(BraceError, match="Tally agents: the class declares no spatial"):
            BraceRuntime(world, config)

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_a_birth_without_a_spatial_field_is_refused(self, executor):
        world = make_boid_world(num_agents=4, seed=3, agent_class=TallyParent)
        config = BraceConfig(num_workers=2, executor=executor, max_workers=2)
        with BraceRuntime(world, config) as runtime:
            runtime.run_tick()
            with pytest.raises(BraceError, match="Tally agents: the class declares no spatial"):
                runtime.run_tick()
            # The child never joined the world.
            assert world.agent_count() == 4
            assert not any(isinstance(agent, Tally) for agent in world.agents())

    def test_epochs_without_balancing_or_checkpoints_move_no_bytes(self):
        world = make_boid_world(num_agents=40, seed=3)
        config = BraceConfig(
            num_workers=2, executor="process", max_workers=2, ticks_per_epoch=2,
            load_balance=False, checkpointing=False,
        )
        with BraceRuntime(world, config) as runtime:
            runtime.run(6)
            assert len(runtime.metrics.epochs) == 3
            assert [epoch.ipc_bytes for epoch in runtime.metrics.epochs] == [0, 0, 0]

    def test_worker_of_unknown_agent(self):
        world = make_boid_world(num_agents=5, seed=3)
        runtime = BraceRuntime(world, BraceConfig(num_workers=2))
        with pytest.raises(BraceError):
            runtime.worker_of(12345)

    def test_epoch_statistics_recorded(self):
        world = make_boid_world(num_agents=40, seed=3)
        runtime = BraceRuntime(world, BraceConfig(num_workers=4, ticks_per_epoch=2))
        runtime.run(6)
        assert len(runtime.metrics.epochs) == 3
        assert all(epoch.ticks == 2 for epoch in runtime.metrics.epochs)
        assert runtime.metrics.epoch_times() == [
            epoch.virtual_seconds for epoch in runtime.metrics.epochs
        ]

    def test_throughput_positive_and_warmup_skipping(self):
        world = make_boid_world(num_agents=40, seed=3)
        runtime = BraceRuntime(world, BraceConfig(num_workers=4))
        runtime.run(4)
        assert runtime.throughput() > 0
        assert runtime.throughput(skip_ticks=2) > 0

    def test_single_worker_has_no_network_traffic(self):
        world = make_boid_world(num_agents=30, seed=3)
        runtime = BraceRuntime(world, BraceConfig(num_workers=1))
        runtime.run(2)
        assert runtime.metrics.total_bytes_over_network() == 0

    def test_more_workers_mean_more_replication(self):
        few = make_boid_world(num_agents=60, seed=3)
        many = make_boid_world(num_agents=60, seed=3)
        runtime_few = BraceRuntime(few, BraceConfig(num_workers=2))
        runtime_many = BraceRuntime(many, BraceConfig(num_workers=8))
        runtime_few.run(2)
        runtime_many.run(2)
        assert (
            runtime_many.metrics.total_bytes_over_network()
            > runtime_few.metrics.total_bytes_over_network()
        )


@pytest.mark.parametrize("executor", ["serial", "thread"])
class TestByReferenceTransport:
    """In-process shards hold the world's own agents: no copy, no sync, no IPC."""

    @staticmethod
    def assert_shards_alias_world(runtime):
        # Balanced epochs of one tick flush births/deaths to the shards
        # every tick.
        owned = {}
        for shard in runtime.executor._shards.values():
            owned.update(shard.owned)
        assert sorted(owned, key=repr) == runtime.world.agent_ids()
        for agent_id, agent in owned.items():
            assert agent is runtime.world.get_agent(agent_id)
        assert runtime.sync_world() == 0
        assert runtime.metrics.total_ipc_bytes() == 0
        for tick in runtime.metrics.ticks:
            assert tick.ipc_bytes_total == 0 and tick.ipc_overhead_seconds == 0.0
            assert tick.ipc_compute_seconds == 0.0

    def test_across_migration_rebalance_and_recovery(self, executor):
        world = make_boid_world(num_agents=40, seed=3)
        config = BraceConfig(
            num_workers=3,
            executor=executor,
            max_workers=2,
            ticks_per_epoch=1,
            load_balance_threshold=1.01,
            checkpointing=True,
        )
        with BraceRuntime(world, config) as runtime:
            runtime.run(4)
            assert sum(tick.agents_migrated for tick in runtime.metrics.ticks) > 0
            assert any(epoch.rebalanced for epoch in runtime.metrics.epochs)
            self.assert_shards_alias_world(runtime)
            before = world.agents()
            runtime.recover()
            runtime.run_tick()
            assert all(a is not b for a, b in zip(before, world.agents()))
            self.assert_shards_alias_world(runtime)

    def test_across_births_and_deaths(self, executor):
        world = make_boid_world(num_agents=60, seed=7, agent_class=SpawningAgent, size=30.0)
        config = BraceConfig(
            num_workers=2, executor=executor, max_workers=2, ticks_per_epoch=1
        )
        with BraceRuntime(world, config) as runtime:
            runtime.run(8)
            assert sum(tick.spawned for tick in runtime.metrics.ticks) > 0
            assert sum(tick.killed for tick in runtime.metrics.ticks) > 0
            self.assert_shards_alias_world(runtime)
