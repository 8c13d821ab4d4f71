"""Tests for coordinated checkpointing and recovery by re-execution."""

import pytest

from repro.brace.checkpoint import CheckpointManager, FailureInjector
from repro.brace.config import BraceConfig
from repro.brace.runtime import BraceRuntime
from repro.brace.shards import ShardSeed, decode_image, encode_image
from repro.brace.worker import ShardSettings
from repro.core.engine import SequentialEngine
from repro.core.errors import BraceError, CheckpointError
from repro.core.world import World
from repro.spatial.partitioning import StripPartitioning

from tests.conftest import Boid, make_boid_world


class TestCheckpointManager:
    def test_take_keeps_the_captured_images(self):
        world = make_boid_world(num_agents=10, seed=1)
        world.tick = 6
        partitioning = StripPartitioning.uniform(world.bounds, 0, 1)
        seed = ShardSeed(partitioning.partition(0), partitioning, world.agents(), ShardSettings())
        manager = CheckpointManager()
        checkpoint = manager.take(world, epoch=1, tag=3, capture=lambda: {0: encode_image(seed)})
        assert manager.latest() is checkpoint
        assert (checkpoint.tick, checkpoint.epoch, checkpoint.tag) == (6, 1, 3)
        assert (checkpoint.next_id, checkpoint.seed) == (world.next_agent_id, world.seed)
        original = world.copy()
        SequentialEngine(world).run(3)
        restored = World(bounds=world.bounds)
        restored.rewind(
            checkpoint.tick,
            checkpoint.next_id,
            checkpoint.seed,
            decode_image(checkpoint.images[0]).agents,
        )
        assert restored.same_state_as(original)
        assert not world.same_state_as(original)

    def test_latest_without_checkpoint_raises(self):
        manager = CheckpointManager()
        assert not manager.has_checkpoint()
        with pytest.raises(CheckpointError):
            manager.latest()

    def test_keep_last_evicts_older_checkpoints(self):
        world = make_boid_world(num_agents=5, seed=1)
        manager = CheckpointManager(keep_last=2)
        for epoch in range(5):
            world.tick = epoch
            manager.take(world, epoch=epoch, tag=epoch, capture=dict)
        assert manager.total_checkpoints == 5
        assert manager.latest().epoch == 4

    def test_invalid_keep_last(self):
        with pytest.raises(CheckpointError):
            CheckpointManager(keep_last=0)


class TestFailureInjector:
    def test_zero_probability_never_fails(self):
        injector = FailureInjector(0.0, seed=1)
        assert not any(injector.should_fail() for _ in range(100))

    def test_deterministic_given_seed(self):
        first = [FailureInjector(0.3, seed=5).should_fail() for _ in range(1)]
        second = [FailureInjector(0.3, seed=5).should_fail() for _ in range(1)]
        assert first == second

    def test_counts_failures(self):
        injector = FailureInjector(1.0, seed=0)
        for _ in range(3):
            injector.should_fail()
        assert injector.failures_injected == 3

    def test_invalid_probability(self):
        with pytest.raises(CheckpointError):
            FailureInjector(1.5)


class TestRuntimeRecovery:
    def _runtime(self, seed=9):
        world = make_boid_world(num_agents=30, seed=seed)
        config = BraceConfig(
            num_workers=3, ticks_per_epoch=2, checkpointing=True, checkpoint_interval_epochs=1
        )
        return world, BraceRuntime(world, config)

    def test_checkpoints_taken_at_epoch_boundaries(self):
        _world, runtime = self._runtime()
        runtime.run(6)
        assert runtime.master.checkpoint_manager.total_checkpoints == 3
        assert any(epoch.checkpointed for epoch in runtime.metrics.epochs)

    def test_recover_rewinds_to_last_checkpoint(self):
        world, runtime = self._runtime()
        runtime.run(5)  # checkpoints at ticks 2 and 4
        ticks_lost = runtime.recover()
        assert ticks_lost == 1
        assert world.tick == 4
        assert sum(runtime.owned_counts()) == world.agent_count()

    def test_recovery_and_reexecution_match_failure_free_run(self):
        reference = make_boid_world(num_agents=30, seed=9)
        SequentialEngine(reference).run(8)

        world, runtime = self._runtime()
        runtime.run(5)
        runtime.recover()          # lose tick 4
        remaining = 8 - world.tick
        runtime.run(remaining)     # re-execute to tick 8
        assert world.same_state_as(reference, tolerance=1e-9)

    def test_recover_without_checkpoint_raises(self):
        world = make_boid_world(num_agents=10, seed=9)
        runtime = BraceRuntime(world, BraceConfig(num_workers=2, checkpointing=False))
        with pytest.raises(CheckpointError):
            runtime.recover()

    def test_run_with_failures_requires_checkpointing(self):
        world = make_boid_world(num_agents=10, seed=9)
        runtime = BraceRuntime(world, BraceConfig(num_workers=2, checkpointing=False))
        with pytest.raises(BraceError):
            runtime.run_with_failures(2, FailureInjector(0.1, seed=0))

    def test_run_with_failures_still_reaches_target_and_matches_reference(self):
        reference = make_boid_world(num_agents=30, seed=9)
        SequentialEngine(reference).run(8)

        world, runtime = self._runtime()
        injector = FailureInjector(0.25, seed=3)
        runtime.run_with_failures(8, injector)
        assert world.tick == 8
        assert world.same_state_as(reference, tolerance=1e-9)
