"""Tests for the hand-coded MITSIM-style baseline simulator."""

import pytest

from repro.baselines.mitsim import HandCodedTrafficSimulator
from repro.core.engine import SequentialEngine
from repro.harness.common import run_brace
from repro.simulations.traffic import (
    TrafficParameters,
    TrafficStatisticsCollector,
    build_traffic_world,
    compare_lane_statistics,
)


@pytest.fixture(scope="module")
def parameters():
    return TrafficParameters(segment_length=1500.0, num_lanes=4)


class TestBaselineBehaviour:
    def test_populate_matches_parameter_count(self, parameters):
        baseline = HandCodedTrafficSimulator(parameters, seed=1)
        baseline.populate()
        assert len(baseline.vehicles) == parameters.vehicles_total()

    def test_load_from_world_copies_state(self, parameters):
        world = build_traffic_world(parameters, seed=2)
        baseline = HandCodedTrafficSimulator(parameters, seed=2)
        baseline.load_from_world(world)
        assert len(baseline.vehicles) == world.agent_count()
        for record in baseline.vehicles:
            agent = world.get_agent(record.vehicle_id)
            assert record.x == agent.x
            assert record.lane == agent.lane
            assert record.speed == agent.speed

    def test_vehicles_stay_on_segment(self, parameters):
        baseline = HandCodedTrafficSimulator(parameters, seed=3)
        baseline.populate()
        baseline.run(20)
        for record in baseline.vehicles:
            assert 0.0 <= record.x < parameters.segment_length
            assert 0 <= record.lane < parameters.num_lanes
            assert 0.0 <= record.speed <= parameters.max_speed() + 1e-9

    def test_lane_changes_happen(self, parameters):
        baseline = HandCodedTrafficSimulator(parameters, seed=3)
        baseline.populate()
        baseline.run(20)
        assert sum(record.lane_changes for record in baseline.vehicles) > 0

    def test_deterministic(self, parameters):
        first = HandCodedTrafficSimulator(parameters, seed=5)
        first.populate()
        first.run(10)
        second = HandCodedTrafficSimulator(parameters, seed=5)
        second.populate()
        second.run(10)
        for a, b in zip(first.vehicles, second.vehicles):
            assert a.x == b.x and a.lane == b.lane and a.speed == b.speed


class TestBaselineVsAgentFramework:
    def test_statistics_close_to_agent_implementation(self, parameters):
        ticks = 40
        world = build_traffic_world(parameters, seed=17)
        agent_collector = TrafficStatisticsCollector(parameters)
        engine = SequentialEngine(world, check_visibility=False)
        for _ in range(ticks):
            engine.run_tick()
            agent_collector.observe(world.agents())

        baseline = HandCodedTrafficSimulator(parameters, seed=17)
        baseline.load_from_world(build_traffic_world(parameters, seed=17))
        baseline_collector = TrafficStatisticsCollector(parameters)
        baseline.run(ticks, baseline_collector)

        comparison = compare_lane_statistics(baseline_collector, agent_collector)
        for metrics in comparison.values():
            # Velocity and density agree to within a few percent; change
            # frequency is noisier (small counts) but must stay bounded.
            assert metrics["average_velocity"] < 0.10
            assert metrics["average_density"] < 0.25
            assert metrics["change_frequency"] < 1.0

    def test_baseline_is_faster_than_generic_framework(self, parameters):
        ticks = 5
        world = build_traffic_world(parameters, seed=19)
        run = run_brace(world, ticks, indexed=True)
        framework_seconds = run.metrics.total_wall_seconds

        baseline = HandCodedTrafficSimulator(parameters, seed=19)
        baseline.populate()
        baseline_seconds = baseline.run(ticks)
        assert baseline_seconds < framework_seconds
