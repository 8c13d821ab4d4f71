"""Tests for the sequential reference engine."""

import pytest

from repro.core.engine import RunStatistics, SequentialEngine, apply_births_and_deaths
from repro.core.context import UpdateContext

from tests.conftest import Boid, SpawningAgent, make_boid_world


class TestTickExecution:
    def test_run_tick_advances_time_and_returns_stats(self, boid_world):
        engine = SequentialEngine(boid_world)
        stats = engine.run_tick()
        assert boid_world.tick == 1
        assert stats.num_agents == 60
        assert stats.total_seconds > 0
        assert stats.agent_ticks == 60

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
        assert statistics.throughput() > 0

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
        reference = make_boid_world(seed=13)
        SequentialEngine(reference).run(4)
        candidate = make_boid_world(seed=13)
        SequentialEngine(candidate, spatial_backend=backend).run(4)
        assert reference.same_state_as(candidate, tolerance=0.0)

    @pytest.mark.parametrize("backend", ["python", "vectorized"])
    def test_work_charges_follow_the_backend(self, backend):
        world = make_boid_world(num_agents=30, seed=13)
        stats = SequentialEngine(world, spatial_backend=backend).run_tick()
        if backend == "python":
            # One neighbour scan per boid, each charged the whole extent.
            assert (stats.work_units, stats.index_probes) == (30 * 30, 0)
        else:
            assert stats.index_probes == 30
            assert 0 < stats.work_units < 30 * 30

    def test_on_tick_end_callback(self, small_boid_world):
        observed = []
        engine = SequentialEngine(
            small_boid_world, on_tick_end=lambda world, stats: observed.append(stats.tick)
        )
        engine.run(3)
        assert observed == [0, 1, 2]

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
    def test_discard_warmup(self, small_boid_world):
        engine = SequentialEngine(small_boid_world)
        engine.run(5)
        trimmed = engine.statistics.discard_warmup(2)
        assert len(trimmed.ticks) == 3
        assert trimmed.total_agent_ticks == 3 * 20

    def test_empty_statistics(self):
        statistics = RunStatistics()
        assert statistics.throughput() == 0.0
        assert statistics.total_seconds == 0.0
