"""Tests for the traffic simulation model and its statistics."""

import math

import pytest

from repro.brace.config import BraceConfig
from repro.brace.runtime import BraceRuntime
from repro.core.engine import SequentialEngine
from repro.simulations.traffic import (
    TrafficParameters,
    TrafficStatisticsCollector,
    build_traffic_world,
    compare_lane_statistics,
    make_vehicle_class,
)


@pytest.fixture(scope="module")
def parameters():
    return TrafficParameters(segment_length=1000.0, num_lanes=4)


class TestWorldConstruction:
    def test_population_size_from_density(self, parameters):
        world = build_traffic_world(parameters, seed=1)
        assert world.agent_count() == parameters.vehicles_total()

    def test_explicit_vehicle_count(self, parameters):
        world = build_traffic_world(parameters, seed=1, num_vehicles=33)
        assert world.agent_count() == 33

    def test_vehicles_inside_segment_and_lanes(self, parameters):
        world = build_traffic_world(parameters, seed=2)
        for vehicle in world.agents():
            assert 0.0 <= vehicle.x < parameters.segment_length
            assert 0 <= vehicle.lane < parameters.num_lanes
            assert vehicle.speed >= 0.0

    def test_same_seed_same_world(self, parameters):
        assert build_traffic_world(parameters, seed=5).same_state_as(
            build_traffic_world(parameters, seed=5)
        )

    def test_parameters_scaling(self):
        base = TrafficParameters(segment_length=1000.0)
        scaled = base.scaled_to(4000.0)
        assert scaled.segment_length == 4000.0
        assert scaled.vehicles_total() == 4 * base.vehicles_total()


class TestDriverBehaviour:
    def test_vehicles_stay_on_segment_and_in_lanes(self, parameters):
        world = build_traffic_world(parameters, seed=3)
        SequentialEngine(world, check_visibility=False).run(10)
        for vehicle in world.agents():
            assert 0.0 <= vehicle.x < parameters.segment_length
            assert 0 <= vehicle.lane < parameters.num_lanes
            assert 0.0 <= vehicle.speed <= parameters.max_speed() + 1e-9

    def test_lane_changes_happen(self, parameters):
        world = build_traffic_world(parameters, seed=3)
        SequentialEngine(world, check_visibility=False).run(15)
        assert sum(vehicle.lane_changes for vehicle in world.agents()) > 0

    def test_free_flow_reaches_desired_speed(self):
        # A single vehicle with nothing ahead accelerates towards its desired speed.
        params = TrafficParameters(segment_length=5000.0)
        vehicle_class = make_vehicle_class(params)
        world = build_traffic_world(params, seed=1, num_vehicles=1, vehicle_class=vehicle_class)
        vehicle = world.agents()[0]
        vehicle.set_state_dict({"speed": 0.0})
        SequentialEngine(world, check_visibility=False).run(60)
        assert vehicle.speed == pytest.approx(vehicle.desired_speed, rel=0.05)

    def test_follower_does_not_rear_end_leader(self):
        params = TrafficParameters(segment_length=2000.0)
        vehicle_class = make_vehicle_class(params)
        world = build_traffic_world(params, seed=1, num_vehicles=2, vehicle_class=vehicle_class)
        leader, follower = world.agents()
        leader.set_state_dict({"x": 300.0, "lane": 0, "speed": 5.0, "desired_speed": 5.0})
        follower.set_state_dict({"x": 200.0, "lane": 0, "speed": 30.0, "desired_speed": 30.0})
        engine = SequentialEngine(world, check_visibility=False)
        for _ in range(30):
            engine.run_tick()
            gap = (leader.x - follower.x) % params.segment_length
            assert gap > 0.5  # never collides

    def test_rightmost_lane_less_popular(self, parameters):
        world = build_traffic_world(parameters, seed=7)
        collector = TrafficStatisticsCollector(parameters)
        engine = SequentialEngine(world, check_visibility=False)
        for _ in range(20):
            engine.run_tick()
            collector.observe(world.agents())
        summary = collector.summary()
        rightmost = parameters.num_lanes - 1
        other_density = sum(
            summary[lane]["average_density"] for lane in range(rightmost)
        ) / rightmost
        assert summary[rightmost]["average_density"] < other_density

    def test_brace_equivalence(self, parameters):
        reference = build_traffic_world(parameters, seed=9)
        SequentialEngine(reference, check_visibility=False).run(5)
        world = build_traffic_world(parameters, seed=9)
        config = BraceConfig(num_workers=4, check_visibility=False)
        BraceRuntime(world, config).run(5)
        assert world.same_state_as(reference)


class TestStatistics:
    def test_collector_counts_lane_changes(self, parameters):
        world = build_traffic_world(parameters, seed=3)
        collector = TrafficStatisticsCollector(parameters)
        collector.observe(world.agents())  # baseline observation of the initial lanes
        engine = SequentialEngine(world, check_visibility=False)
        for _ in range(10):
            engine.run_tick()
            collector.observe(world.agents())
        total_changes = sum(stats.lane_changes_out for stats in collector.lanes.values())
        assert total_changes == sum(vehicle.lane_changes for vehicle in world.agents())

    def test_summary_has_every_lane(self, parameters):
        collector = TrafficStatisticsCollector(parameters)
        collector.observe(build_traffic_world(parameters, seed=1).agents())
        summary = collector.summary()
        assert set(summary) == set(range(parameters.num_lanes))
        for metrics in summary.values():
            assert set(metrics) == {"change_frequency", "average_density", "average_velocity"}

    def test_compare_lane_statistics_zero_for_identical_collectors(self, parameters):
        world = build_traffic_world(parameters, seed=3)
        first = TrafficStatisticsCollector(parameters)
        second = TrafficStatisticsCollector(parameters)
        first.observe(world.agents())
        second.observe(world.agents())
        comparison = compare_lane_statistics(first, second)
        for metrics in comparison.values():
            for value in metrics.values():
                assert value == pytest.approx(0.0)
