"""Tests for the Couzin fish school model."""

import math

import pytest

from repro.brace.config import BraceConfig
from repro.brace.runtime import BraceRuntime
from repro.core.engine import SequentialEngine
from repro.simulations.fish import (
    CouzinParameters,
    build_fish_world,
    group_centroid,
    make_fish_class,
    school_polarization,
    school_spread,
)


@pytest.fixture(scope="module")
def parameters():
    return CouzinParameters(seed_region=40.0)


class TestWorldConstruction:
    def test_population_and_informed_split(self, parameters):
        world = build_fish_world(100, parameters, seed=1)
        informed = [fish.informed for fish in world.agents()]
        assert len(informed) == 100
        expected_informed = round(100 * parameters.informed_fraction)
        assert informed.count(1) + informed.count(2) == expected_informed
        assert abs(informed.count(1) - informed.count(2)) <= 1

    def test_headings_are_unit_vectors(self, parameters):
        world = build_fish_world(50, parameters, seed=2)
        for fish in world.agents():
            assert math.hypot(fish.dx, fish.dy) == pytest.approx(1.0, rel=1e-9)

    def test_same_seed_same_world(self, parameters):
        assert build_fish_world(30, parameters, seed=5).same_state_as(
            build_fish_world(30, parameters, seed=5)
        )


class TestDynamics:
    def test_speed_is_constant_per_tick(self, parameters):
        world = build_fish_world(60, parameters, seed=3)
        before = {fish.agent_id: fish.position() for fish in world.agents()}
        SequentialEngine(world, check_visibility=False).run_tick()
        for fish in world.agents():
            moved = math.dist(fish.position(), before[fish.agent_id])
            assert moved == pytest.approx(parameters.speed, rel=1e-6)

    def test_headings_remain_unit_after_updates(self, parameters):
        world = build_fish_world(60, parameters, seed=3)
        SequentialEngine(world, check_visibility=False).run(5)
        for fish in world.agents():
            assert math.hypot(fish.dx, fish.dy) == pytest.approx(1.0, rel=1e-9)

    def test_avoidance_pushes_close_fish_apart(self):
        parameters = CouzinParameters(alpha=2.0, rho=10.0, noise_sigma=0.0)
        fish_class = make_fish_class(parameters)
        world = build_fish_world(2, parameters, seed=1, fish_class=fish_class)
        first, second = world.agents()
        first.set_state_dict({"x": 0.0, "y": 0.0, "dx": 1.0, "dy": 0.0, "informed": 0})
        second.set_state_dict({"x": 0.5, "y": 0.0, "dx": -1.0, "dy": 0.0, "informed": 0})
        initial_distance = math.dist(first.position(), second.position())
        SequentialEngine(world, check_visibility=False).run(3)
        assert math.dist(first.position(), second.position()) > initial_distance

    def test_informed_fish_drag_the_school(self):
        parameters = CouzinParameters(
            informed_fraction=0.5, omega=0.9, noise_sigma=0.0,
            preferred_directions=(0.0, 0.0), seed_region=20.0,
        )
        fish_class = make_fish_class(parameters)
        world = build_fish_world(40, parameters, seed=4, fish_class=fish_class)
        start_x, _ = group_centroid(world.agents())
        SequentialEngine(world, check_visibility=False).run(20)
        end_x, _ = group_centroid(world.agents())
        assert end_x > start_x  # everyone informed towards +x moves the centroid right

    def test_opposed_informed_groups_stretch_the_school(self, parameters):
        stretched = CouzinParameters(
            informed_fraction=0.4, omega=0.9, noise_sigma=0.0, seed_region=20.0
        )
        fish_class = make_fish_class(stretched)
        world = build_fish_world(60, stretched, seed=5, fish_class=fish_class)
        initial_spread = school_spread(world.agents())
        SequentialEngine(world, check_visibility=False).run(30)
        assert school_spread(world.agents()) > initial_spread

    def test_brace_equivalence(self, parameters):
        reference = build_fish_world(60, parameters, seed=6)
        SequentialEngine(reference, check_visibility=False).run(5)
        world = build_fish_world(60, parameters, seed=6)
        BraceRuntime(world, BraceConfig(num_workers=4, check_visibility=False)).run(5)
        assert world.same_state_as(reference)


class TestStatistics:
    def test_polarization_bounds(self, parameters):
        world = build_fish_world(50, parameters, seed=7)
        value = school_polarization(world.agents())
        assert 0.0 <= value <= 1.0
        assert school_polarization([]) == 0.0

    def test_centroid_and_spread_of_known_configuration(self):
        parameters = CouzinParameters()
        fish_class = make_fish_class(parameters)
        fish = [
            fish_class(agent_id=0, x=-1.0, y=0.0),
            fish_class(agent_id=1, x=1.0, y=0.0),
        ]
        assert group_centroid(fish) == (0.0, 0.0)
        assert school_spread(fish) == pytest.approx(1.0)
        assert group_centroid([]) == (0.0, 0.0)
        assert school_spread([]) == 0.0
