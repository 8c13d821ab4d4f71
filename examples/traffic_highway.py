"""Traffic example: a multi-lane highway with MITSIM-style drivers.

Runs the traffic simulation on BRACE, collects per-lane
statistics, and validates them against the hand-coded baseline simulator —
a miniature version of the paper's Table 2 experiment.

Run with:  python examples/traffic_highway.py
"""

from repro import Simulation
from repro.baselines.mitsim import HandCodedTrafficSimulator
from repro.simulations.traffic import (
    TrafficParameters,
    TrafficStatisticsCollector,
    build_traffic_world,
    compare_lane_statistics,
)


def main() -> None:
    parameters = TrafficParameters(segment_length=3000.0, num_lanes=4)
    ticks = 50

    # Agent-framework run on BRACE, observed after every tick.
    world = build_traffic_world(parameters, seed=7)
    agent_stats = TrafficStatisticsCollector(parameters)
    session = Simulation.from_agents(world).with_workers(1)
    session.on_tick(lambda _event: agent_stats.observe(world.agents()))
    with session:
        result = session.run(ticks)

    # Hand-coded baseline from the same initial conditions.
    baseline = HandCodedTrafficSimulator(parameters, seed=7)
    baseline.load_from_world(build_traffic_world(parameters, seed=7))
    baseline_stats = TrafficStatisticsCollector(parameters)
    baseline.run(ticks, baseline_stats)

    print(f"{world.agent_count()} vehicles, {ticks} ticks")
    print(f"agent framework: {result.metrics.total_wall_seconds:.2f}s, "
          f"baseline: {baseline.total_seconds:.2f}s")
    print()
    print("lane  avg speed (agents)  avg speed (baseline)  changes/vehicle-tick")
    for lane, metrics in agent_stats.summary().items():
        baseline_metrics = baseline_stats.summary()[lane]
        print(f"  {lane + 1}   {metrics['average_velocity']:19.2f}"
              f"  {baseline_metrics['average_velocity']:20.2f}"
              f"  {metrics['change_frequency']:20.4f}")

    print()
    print("RMSPE vs baseline (Table 2 style):")
    for lane, metrics in compare_lane_statistics(baseline_stats, agent_stats).items():
        print(f"  lane {lane + 1}: "
              f"change freq {metrics['change_frequency'] * 100:6.2f}%  "
              f"density {metrics['average_density'] * 100:6.2f}%  "
              f"velocity {metrics['average_velocity'] * 100:6.3f}%")


if __name__ == "__main__":
    main()
