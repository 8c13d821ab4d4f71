"""The BRACE runtime must produce the same agent states as the sequential engine.

This is the repository's core correctness invariant (Theorem 1 made
executable): regardless of the number of workers, the partitioning, the
spatial index, load balancing or the presence of non-local effects, a BRACE
run is indistinguishable from a sequential run of the same world.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.brace.config import BraceConfig
from repro.brace.runtime import BraceRuntime
from repro.core.engine import SequentialEngine

from repro.core.agent import Agent
from repro.core.combinators import COUNT
from repro.core.fields import EffectField, StateField
from repro.core.world import World
from repro.spatial.bbox import BBox

from tests.conftest import Boid, NonLocalBoid, SpawningAgent, make_boid_world


def sequential_reference(agent_class, seed, ticks, num_agents=40):
    world = make_boid_world(num_agents=num_agents, seed=seed, agent_class=agent_class)
    SequentialEngine(world).run(ticks)
    return world


class TestLocalEffectEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 7])
    def test_matches_sequential(self, workers):
        reference = sequential_reference(Boid, seed=19, ticks=5)
        world = make_boid_world(num_agents=40, seed=19, agent_class=Boid)
        runtime = BraceRuntime(world, BraceConfig(num_workers=workers, ticks_per_epoch=2))
        runtime.run(5)
        assert world.same_state_as(reference, tolerance=1e-9)

    @pytest.mark.parametrize("index", [None, "kdtree", "grid", "quadtree"])
    def test_index_choice_does_not_change_results(self, index):
        reference = sequential_reference(Boid, seed=23, ticks=4)
        world = make_boid_world(num_agents=40, seed=23, agent_class=Boid)
        config = BraceConfig(num_workers=4, index=index, cell_size=10.0)
        BraceRuntime(world, config).run(4)
        assert world.same_state_as(reference, tolerance=1e-9)

    def test_grid_partitioning_matches_sequential(self):
        reference = sequential_reference(Boid, seed=29, ticks=4)
        world = make_boid_world(num_agents=40, seed=29, agent_class=Boid)
        config = BraceConfig(num_workers=4, partitioning="grid", grid_cells=(2, 2),
                             load_balance=False)
        BraceRuntime(world, config).run(4)
        assert world.same_state_as(reference, tolerance=1e-9)

    def test_load_balancing_does_not_change_results(self):
        reference = sequential_reference(Boid, seed=31, ticks=6)
        world = make_boid_world(num_agents=40, seed=31, agent_class=Boid)
        config = BraceConfig(
            num_workers=5, ticks_per_epoch=2, load_balance=True, load_balance_threshold=1.01
        )
        runtime = BraceRuntime(world, config)
        runtime.run(6)
        assert world.same_state_as(reference, tolerance=1e-9)

    @settings(max_examples=10, deadline=None)
    @given(
        workers=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=1000),
        ticks=st.integers(min_value=1, max_value=4),
    )
    def test_property_equivalence(self, workers, seed, ticks):
        reference = sequential_reference(Boid, seed=seed, ticks=ticks, num_agents=25)
        world = make_boid_world(num_agents=25, seed=seed, agent_class=Boid)
        BraceRuntime(world, BraceConfig(num_workers=workers, ticks_per_epoch=2)).run(ticks)
        assert world.same_state_as(reference, tolerance=1e-9)


class TestNonLocalEffectEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4, 6])
    def test_two_pass_matches_sequential(self, workers):
        reference = sequential_reference(NonLocalBoid, seed=37, ticks=5)
        world = make_boid_world(num_agents=40, seed=37, agent_class=NonLocalBoid)
        config = BraceConfig(num_workers=workers, non_local_effects=True, ticks_per_epoch=2)
        BraceRuntime(world, config).run(5)
        assert world.same_state_as(reference, tolerance=1e-9)

    @pytest.mark.parametrize("workers", [1, 3, 5])
    def test_local_model_also_correct_under_second_reduce_pass(self, workers):
        # A local-effects model must be unaffected by the extra reduce pass.
        reference = sequential_reference(Boid, seed=4, ticks=3)
        world = make_boid_world(num_agents=40, seed=4, agent_class=Boid)
        config = BraceConfig(num_workers=workers, non_local_effects=True)
        BraceRuntime(world, config).run(3)
        assert world.same_state_as(reference, tolerance=1e-9)

    def test_two_pass_grid_partitioning_matches_sequential(self):
        reference = sequential_reference(NonLocalBoid, seed=11, ticks=4)
        world = make_boid_world(num_agents=40, seed=11, agent_class=NonLocalBoid)
        config = BraceConfig(num_workers=4, non_local_effects=True, partitioning="grid",
                             grid_cells=(2, 2), load_balance=False)
        BraceRuntime(world, config).run(4)
        assert world.same_state_as(reference, tolerance=1e-9)

    def test_non_local_effects_without_flag_is_an_error(self):
        world = make_boid_world(num_agents=20, seed=37, agent_class=NonLocalBoid)
        runtime = BraceRuntime(world, BraceConfig(num_workers=3, non_local_effects=False))
        with pytest.raises(Exception):
            runtime.run(1)


class TestZeroTicks:
    def test_zero_ticks_leave_the_world_unchanged(self):
        reference = make_boid_world(num_agents=20, seed=1, agent_class=Boid)
        world = make_boid_world(num_agents=20, seed=1, agent_class=Boid)
        BraceRuntime(world, BraceConfig(num_workers=2)).run(0)
        assert world.tick == 0
        assert world.same_state_as(reference)


class TestDynamicPopulationEquivalence:
    @pytest.mark.parametrize("workers", [1, 3, 5])
    def test_births_and_deaths_match_sequential(self, workers):
        reference = make_boid_world(num_agents=30, seed=8, agent_class=SpawningAgent, size=20.0)
        SequentialEngine(reference).run(8)
        world = make_boid_world(num_agents=30, seed=8, agent_class=SpawningAgent, size=20.0)
        BraceRuntime(world, BraceConfig(num_workers=workers, ticks_per_epoch=3)).run(8)
        assert world.agent_ids() == reference.agent_ids()
        assert world.same_state_as(reference, tolerance=1e-9)


class Climber(Agent):
    """Climbs out of the box in y, remembering how many neighbours it met."""

    x = StateField(0.0, spatial=True, visibility=10.0, reachability=2.0)
    y = StateField(0.0, spatial=True, visibility=10.0, reachability=2.0)
    met = StateField(0)
    near = EffectField(COUNT)

    def query(self, ctx):
        for _other in ctx.neighbors(self, 6.0):
            self.near = 1

    def update(self, ctx):
        self.met = self.met + self.near
        self.y = self.y + 2.0


class TestAgentsOutsideTheWorldBox:
    def test_two_strips_match_sequential_after_drifting_out_of_the_uncut_axis(self):
        # Two columns straddle the strip boundary (x=30) and end well past
        # one visibility radius (10) above the box; each agent must stay
        # replicated to the other strip the whole way.
        def build():
            world = World(bounds=BBox(((0.0, 60.0), (0.0, 60.0))), seed=5)
            for row in range(6):
                for x in (28.5, 31.5):
                    world.add_agent(Climber(x=x, y=54.0 + row))
            return world

        reference = build()
        SequentialEngine(reference).run(12)
        assert min(agent.y for agent in reference.agents()) > 70.0
        world = build()
        BraceRuntime(world, BraceConfig(num_workers=2, load_balance=False)).run(12)
        assert world.same_state_as(reference, tolerance=0.0)
