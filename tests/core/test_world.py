"""Tests for the World container."""

import pytest

from repro.core.errors import WorldError
from repro.core.world import World
from repro.spatial.bbox import BBox

from tests.conftest import Boid, make_boid_world


class TestAgentManagement:
    def test_add_allocates_ids(self):
        world = World()
        first = world.add_agent(Boid())
        second = world.add_agent(Boid())
        assert first.agent_id == 0
        assert second.agent_id == 1
        assert world.agent_count() == 2

    def test_duplicate_id_rejected(self):
        world = World()
        world.add_agent(Boid(agent_id=5))
        with pytest.raises(WorldError):
            world.add_agent(Boid(agent_id=5))

    def test_remove_and_get(self):
        world = World()
        agent = world.add_agent(Boid())
        assert world.get_agent(agent.agent_id) is agent
        assert world.has_agent(agent.agent_id)
        removed = world.remove_agent(agent.agent_id)
        assert removed is agent
        assert not world.has_agent(agent.agent_id)
        with pytest.raises(WorldError):
            world.get_agent(agent.agent_id)
        with pytest.raises(WorldError):
            world.remove_agent(agent.agent_id)

    def test_agents_sorted_deterministically(self):
        world = World()
        world.add_agent(Boid(agent_id=3))
        world.add_agent(Boid(agent_id=1))
        world.add_agent(Boid(agent_id=2))
        assert [agent.agent_id for agent in world.agents()] == sorted(
            [3, 1, 2], key=repr
        )

    def test_populate_and_clear(self):
        world = World()
        world.populate(lambda index: Boid(x=float(index)), 5)
        assert world.agent_count() == 5
        world.clear()
        assert world.agent_count() == 0

    def test_allocate_ids_are_fresh(self):
        world = World()
        world.add_agent(Boid())
        ids = world.allocate_ids(3)
        assert len(set(ids)) == 3
        assert all(not world.has_agent(agent_id) for agent_id in ids)


class TestSnapshots:
    def test_rewind_round_trip(self):
        world = make_boid_world(num_agents=10)
        original = world.copy()
        kept = [agent.clone() for agent in world.agents()]
        for agent in world.agents():
            agent.set_state_dict({"x": agent.x + 5.0})
        world.add_agent(Boid())
        world.rewind(original.tick, original.next_agent_id, original.seed, kept)
        assert world.tick == original.tick
        assert world.next_agent_id == original.next_agent_id
        assert world.same_state_as(original)

    def test_copy_is_deep(self):
        world = make_boid_world(num_agents=5)
        duplicate = world.copy()
        world.agents()[0].set_state_dict({"x": 123.0})
        assert not world.same_state_as(duplicate)

    def test_same_state_as_detects_population_difference(self):
        world = make_boid_world(num_agents=5)
        duplicate = world.copy()
        duplicate.remove_agent(duplicate.agent_ids()[0])
        assert not world.same_state_as(duplicate)

    def test_bounds_and_seed_preserved_by_copy(self):
        world = World(bounds=BBox(((0.0, 1.0),)), seed=42)
        duplicate = world.copy()
        assert duplicate.bounds == world.bounds
        assert duplicate.seed == 42

    def test_repr_mentions_population(self):
        world = make_boid_world(num_agents=3)
        assert "agents=3" in repr(world)
