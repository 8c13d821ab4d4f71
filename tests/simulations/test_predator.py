"""Tests for the predator simulation (non-local effects, births and deaths)."""

import pytest

from repro.brace.config import BraceConfig
from repro.brace.runtime import BraceRuntime
from repro.core.engine import SequentialEngine
from repro.simulations.predator import (
    LocalPredator,
    NonLocalPredator,
    PredatorParameters,
    build_predator_world,
    make_predator_classes,
)


class TestWorldConstruction:
    def test_population_and_bounds(self):
        parameters = PredatorParameters(region_size=100.0)
        world = build_predator_world(80, parameters, seed=1)
        assert world.agent_count() == 80
        half = parameters.region_size / 2
        for fish in world.agents():
            assert -half <= fish.x <= half
            assert -half <= fish.y <= half
            assert fish.energy > 0

    def test_variant_selection(self):
        non_local_world = build_predator_world(5, seed=1, non_local=True)
        local_world = build_predator_world(5, seed=1, non_local=False)
        # Both classes are named "Predator" but behave differently in the
        # query phase; the worlds start from identical state.
        assert non_local_world.same_state_as(local_world)


class TestFormulationEquivalence:
    """The non-local and effect-inverted formulations must agree exactly."""

    @pytest.mark.parametrize("ticks", [1, 4])
    def test_fixed_population_equivalence(self, ticks):
        parameters = PredatorParameters(dynamic_population=False)
        non_local_class, local_class = make_predator_classes(parameters)
        first = build_predator_world(60, parameters, seed=3, agent_class=non_local_class)
        second = build_predator_world(60, parameters, seed=3, agent_class=local_class)
        SequentialEngine(first, check_visibility=False).run(ticks)
        SequentialEngine(second, check_visibility=False).run(ticks)
        assert first.same_state_as(second)

    def test_dynamic_population_equivalence(self):
        parameters = PredatorParameters()
        non_local_class, local_class = make_predator_classes(parameters)
        first = build_predator_world(60, parameters, seed=5, agent_class=non_local_class)
        second = build_predator_world(60, parameters, seed=5, agent_class=local_class)
        SequentialEngine(first, check_visibility=False).run(5)
        SequentialEngine(second, check_visibility=False).run(5)
        assert first.agent_ids() == second.agent_ids()
        assert first.same_state_as(second)

    def test_non_local_brace_matches_local_sequential(self):
        parameters = PredatorParameters()
        reference = build_predator_world(60, parameters, seed=7, non_local=False)
        SequentialEngine(reference, check_visibility=False).run(4)
        world = build_predator_world(60, parameters, seed=7, non_local=True)
        config = BraceConfig(num_workers=4, non_local_effects=True, check_visibility=False)
        BraceRuntime(world, config).run(4)
        assert world.same_state_as(reference)


class TestPopulationDynamics:
    def test_births_and_deaths_occur(self):
        parameters = PredatorParameters(
            spawn_probability=0.5, spawn_threshold=9.0, bite_damage=3.0
        )
        world = build_predator_world(120, parameters, seed=9, non_local=False)
        engine = SequentialEngine(world, check_visibility=False)
        statistics = engine.run(10)
        assert sum(stats.spawned for stats in statistics.ticks) > 0
        assert sum(stats.killed for stats in statistics.ticks) > 0

    def test_energy_never_negative_after_death_cleanup(self):
        world = build_predator_world(100, PredatorParameters(), seed=11, non_local=False)
        SequentialEngine(world, check_visibility=False).run(8)
        for fish in world.agents():
            assert fish.energy > 0.0

    def test_fish_stay_inside_region(self):
        parameters = PredatorParameters(region_size=60.0)
        world = build_predator_world(80, parameters, seed=13, non_local=False)
        SequentialEngine(world, check_visibility=False).run(15)
        half = parameters.region_size / 2
        for fish in world.agents():
            assert -half - 1e-9 <= fish.x <= half + 1e-9
            assert -half - 1e-9 <= fish.y <= half + 1e-9

    def test_crowded_population_trends_towards_equilibrium(self):
        # With many fish packed in a small region, biting outpaces grazing and
        # the population falls; density "naturally approaches an equilibrium".
        parameters = PredatorParameters(region_size=30.0, bite_damage=2.5)
        world = build_predator_world(200, parameters, seed=15, non_local=False)
        SequentialEngine(world, check_visibility=False).run(10)
        assert world.agent_count() < 200
