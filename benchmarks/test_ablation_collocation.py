"""Ablation: collocation of map and reduce tasks.

BRACE collocates the map and reduce tasks of a partition on the same worker,
so agents that stay in their partition never touch the network — only
replicas, migrations and effect partials do.  This ablation estimates what a
non-collocated runtime would pay: every owned agent would additionally be
shipped to its reducer every tick.
"""

from repro.api import Simulation
from repro.brace.config import BraceConfig
from repro.simulations.fish import CouzinParameters, build_fish_world, make_fish_class


def test_ablation_collocation(once):
    parameters = CouzinParameters(seed_region=400.0)
    fish_class = make_fish_class(parameters)
    config = BraceConfig(num_workers=16, load_balance=False, check_visibility=False,
                         ticks_per_epoch=5)

    def run():
        world = build_fish_world(800, parameters, seed=21, fish_class=fish_class)
        with Simulation.from_agents(world, config=config) as session:
            result = session.run(5)
            return result, world, session.runtime.cost_model.network

    result, world, network = once(run)

    actual_bytes = result.bytes_over_network()
    # Without collocation every owned agent would cross the network once per tick.
    agent_size = world.agents()[0].approximate_size_bytes()
    hypothetical_extra = sum(stats.num_agents for stats in result.metrics.ticks) * agent_size
    bandwidth = network.bandwidth_bytes_per_second
    extra_seconds = hypothetical_extra / bandwidth / config.num_workers
    actual_seconds = result.metrics.total_virtual_seconds
    degraded_throughput = result.metrics.total_agent_ticks / (actual_seconds + extra_seconds)

    print()
    print(f"  collocated:      {result.throughput():12,.0f} agent ticks/s, "
          f"{actual_bytes:,} bytes over the network")
    print(f"  non-collocated*: {degraded_throughput:12,.0f} agent ticks/s "
          f"(+{hypothetical_extra:,} bytes)   *estimated")

    # Collocation saves real traffic: the hypothetical extra volume dwarfs the
    # replication traffic the collocated runtime actually pays.
    assert hypothetical_extra > actual_bytes
    assert result.throughput() > degraded_throughput
