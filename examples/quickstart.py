"""Quickstart: write an agent once, run it through the `Simulation` session.

The example defines a tiny flocking agent directly in Python using the
state-effect pattern, runs it through `repro.Simulation` — the unified
front door to the parallel BRACE runtime — streaming per-tick events, and
checks that the result equals the sequential reference engine's (the naive
oracle: a linear scan per query) bit for bit: the core guarantee of the
framework.

Run with:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    Agent,
    EffectField,
    SequentialEngine,
    Simulation,
    StateField,
    SUM,
    COUNT,
    World,
)
from repro.spatial.bbox import BBox


class Boid(Agent):
    """A bird-like agent that steers towards the centre of its neighbours."""

    x = StateField(0.0, spatial=True, visibility=15.0, reachability=3.0)
    y = StateField(0.0, spatial=True, visibility=15.0, reachability=3.0)
    vx = StateField(0.0)
    vy = StateField(0.0)

    pull_x = EffectField(SUM)
    pull_y = EffectField(SUM)
    neighbors = EffectField(COUNT)

    def query(self, ctx):
        """Query phase: accumulate the pull towards every visible neighbour."""
        for other in ctx.neighbors(self, 10.0):
            self.pull_x = other.x - self.x
            self.pull_y = other.y - self.y
            self.neighbors = 1

    def update(self, ctx):
        """Update phase: steer towards the neighbourhood centre and move."""
        if self.neighbors > 0:
            self.vx = 0.9 * self.vx + 0.1 * (self.pull_x / self.neighbors)
            self.vy = 0.9 * self.vy + 0.1 * (self.pull_y / self.neighbors)
        self.x = self.x + self.vx
        self.y = self.y + self.vy


def build_world(seed: int = 42, num_boids: int = 200) -> World:
    """Scatter boids uniformly over a 200x200 box."""
    world = World(bounds=BBox(((0.0, 200.0), (0.0, 200.0))), seed=seed)
    rng = np.random.default_rng(seed)
    for _ in range(num_boids):
        world.add_agent(
            Boid(
                x=float(rng.uniform(0, 200)),
                y=float(rng.uniform(0, 200)),
                vx=float(rng.uniform(-1, 1)),
                vy=float(rng.uniform(-1, 1)),
            )
        )
    return world


def main() -> None:
    ticks = 20

    # The same model through the unified session API: four BRACE workers,
    # streamed tick by tick so we can watch epoch boundaries go by.
    session = (
        Simulation.from_agents(build_world())
        .with_workers(4)
        .with_epochs(5)
        .with_index("grid")
    )
    with session as sim:
        for event in sim.stream(ticks):
            if event.is_epoch_boundary:
                print(f"  epoch closed at tick {event.tick}"
                      f" (rebalanced: {event.rebalanced})")
        result = sim.result()

    print(f"BRACE (4 workers): {result.throughput():,.0f} agent ticks/s (virtual time), "
          f"{result.wall_throughput():,.0f} agent ticks/s (wall clock), "
          f"{result.bytes_over_network():,} bytes over the network")
    print(result.provenance.describe())

    sequential_world = build_world()
    SequentialEngine(sequential_world).run(ticks)
    identical = sequential_world.same_state_as(sim.world)
    print(f"sequential and BRACE agent states identical: {identical}")


if __name__ == "__main__":
    main()
