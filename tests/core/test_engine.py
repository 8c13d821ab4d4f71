"""Tests for the sequential reference engine."""

import pytest

from repro.brace.config import BraceConfig
from repro.brace.runtime import BraceRuntime
from repro.core.engine import RunStatistics, SequentialEngine, apply_births_and_deaths
from repro.core.context import UpdateContext

from tests.conftest import Boid, SpawningAgent, make_boid_world


class TestTickExecution:
    def test_run_tick_advances_time_and_returns_stats(self, boid_world):
        engine = SequentialEngine(boid_world)
        stats = engine.run_tick()
        assert boid_world.tick == 1
        assert stats.num_agents == 60
        assert stats.agent_ticks == 60
        # The oracle is the linear scan: one boid's scan costs the extent.
        assert stats.work_units == 60 * 60

    def test_agents_actually_move(self, boid_world):
        before = {agent.agent_id: agent.position() for agent in boid_world.agents()}
        SequentialEngine(boid_world).run(3)
        moved = sum(
            1 for agent in boid_world.agents() if agent.position() != before[agent.agent_id]
        )
        assert moved > 0

    def test_run_accumulates_statistics(self, small_boid_world):
        engine = SequentialEngine(small_boid_world)
        statistics = engine.run(4)
        assert len(statistics.ticks) == 4
        assert statistics.total_agent_ticks == 4 * 20
        assert statistics.total_work_units == 4 * 20 * 20

    def test_deterministic_across_runs(self):
        first = make_boid_world(seed=21)
        second = make_boid_world(seed=21)
        SequentialEngine(first).run(5)
        SequentialEngine(second).run(5)
        assert first.same_state_as(second)

    def test_different_seeds_diverge(self):
        first = make_boid_world(seed=1)
        second = make_boid_world(seed=2)
        SequentialEngine(first).run(3)
        SequentialEngine(second).run(3)
        assert not first.same_state_as(second)

    @pytest.mark.parametrize("backend", ["python", "vectorized"])
    def test_spatial_backend_does_not_change_results(self, backend):
        # One-worker BRACE on either access path equals the scan oracle.
        reference = make_boid_world(seed=13)
        SequentialEngine(reference).run(4)
        candidate = make_boid_world(seed=13)
        config = BraceConfig(num_workers=1, spatial_backend=backend)
        BraceRuntime(candidate, config).run(4)
        assert reference.same_state_as(candidate)

    @pytest.mark.parametrize("backend", ["python", "vectorized"])
    def test_work_charges_follow_the_backend(self, backend):
        oracle = SequentialEngine(make_boid_world(num_agents=30, seed=13)).run_tick()
        world = make_boid_world(num_agents=30, seed=13)
        config = BraceConfig(num_workers=1, spatial_backend=backend)
        (work_units,) = BraceRuntime(world, config).run_tick().query_work_units_per_worker
        if backend == "python":
            # One neighbour scan per boid, each charged the whole extent:
            # exactly what the oracle charges.
            assert work_units == oracle.work_units == 30 * 30
        else:
            assert 0 < work_units < 30 * 30

    def test_per_tick_hook_is_a_loop_over_run_tick(self, small_boid_world):
        engine = SequentialEngine(small_boid_world)
        observed = [engine.run_tick().tick for _ in range(3)]
        assert observed == [0, 1, 2]
        assert [stats.tick for stats in engine.statistics.ticks] == observed

    def test_reachability_clamp_limits_motion(self):
        world = make_boid_world(num_agents=10, seed=5)
        before = {agent.agent_id: agent.position() for agent in world.agents()}
        SequentialEngine(world).run_tick()
        for agent in world.agents():
            old_x, old_y = before[agent.agent_id]
            assert abs(agent.x - old_x) <= 2.0 + 1e-9
            assert abs(agent.y - old_y) <= 2.0 + 1e-9


class TestBirthsAndDeaths:
    def test_population_changes_applied(self):
        world = make_boid_world(num_agents=30, seed=8, agent_class=SpawningAgent, size=20.0)
        engine = SequentialEngine(world)
        statistics = engine.run(8)
        spawned = sum(stats.spawned for stats in statistics.ticks)
        killed = sum(stats.killed for stats in statistics.ticks)
        assert spawned > 0 or killed > 0
        assert world.agent_count() == 30 + spawned - killed

    def test_spawned_ids_are_deterministic(self):
        first = make_boid_world(num_agents=30, seed=8, agent_class=SpawningAgent, size=20.0)
        second = make_boid_world(num_agents=30, seed=8, agent_class=SpawningAgent, size=20.0)
        SequentialEngine(first).run(6)
        SequentialEngine(second).run(6)
        assert first.agent_ids() == second.agent_ids()
        assert first.same_state_as(second)

    def test_apply_births_and_deaths_orders_requests(self):
        world = make_boid_world(num_agents=3, seed=1)
        context = UpdateContext(tick=0, seed=0)
        parents = world.agents()
        context.spawn(parents[2], Boid())
        context.spawn(parents[0], Boid())
        context.kill(parents[1])
        spawned, killed = apply_births_and_deaths(world, context)
        assert len(spawned) == 2
        assert killed == [parents[1].agent_id]
        assert not world.has_agent(parents[1].agent_id)

    def test_kill_of_unknown_agent_is_ignored(self):
        world = make_boid_world(num_agents=2)
        context = UpdateContext(tick=0, seed=0)
        context.kill(Boid(agent_id=999))
        spawned, killed = apply_births_and_deaths(world, context)
        assert spawned == [] and killed == []


class TestRunStatistics:
    def test_empty_statistics(self):
        statistics = RunStatistics()
        assert statistics.total_agent_ticks == 0
        assert statistics.total_work_units == 0
