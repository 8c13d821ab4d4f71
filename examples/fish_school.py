"""Fish school example: information transfer and load balancing, observed live.

A school of fish with two groups of informed individuals is simulated
through the unified `Simulation` API.  Epoch observers watch the load
balancer react as the school splits (the scenario behind Figures 7 and 8),
and a per-tick stream prints how the school's polarization and spread
evolve without ever touching the runtime directly.

Run with:  python examples/fish_school.py
"""

from repro import Simulation
from repro.simulations.fish import (
    CouzinParameters,
    build_fish_world,
    group_centroid,
    make_fish_class,
    school_polarization,
    school_spread,
)


def main() -> None:
    parameters = CouzinParameters(informed_fraction=0.2, omega=0.7, seed_region=80.0)
    fish_class = make_fish_class(parameters)
    world = build_fish_world(1000, parameters, seed=3, fish_class=fish_class)

    session = (
        Simulation.from_agents(world)
        .with_workers(8)
        .with_epochs(5)
        .with_load_balancing(threshold=1.1)
        .with_index("grid", check_visibility=False)
    )
    session.on_epoch(
        lambda epoch: epoch.rebalanced
        and print(f"      epoch {epoch.epoch}: rebalanced "
                  f"({epoch.agents_migrated_by_balancer} fish moved)")
    )

    print(f"{world.agent_count()} fish on 8 workers")
    print("tick  polarization  spread  centroid")
    with session as sim:
        for event in sim.stream(30):
            if (event.tick + 1) % 5 == 0:
                agents = world.agents()
                centroid = group_centroid(agents)
                print(f"{world.tick:4d}  {school_polarization(agents):12.3f}"
                      f"  {school_spread(agents):6.1f}"
                      f"  ({centroid[0]:7.1f}, {centroid[1]:7.1f})")
        result = sim.result()

    print()
    print(f"throughput: {result.throughput():,.0f} agent ticks/s (virtual)")
    print(f"epochs with a rebalance: "
          f"{sum(1 for epoch in result.metrics.epochs if epoch.rebalanced)}")


if __name__ == "__main__":
    main()
