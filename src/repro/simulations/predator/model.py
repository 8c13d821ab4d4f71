"""Parameters of the predator simulation.

The predator simulation (Appendix C) is inspired by artificial-society
models: fish can *bite* nearby fish — hurting and possibly killing them — and
*spawn* offspring when they have accumulated enough energy, so the population
density approaches an equilibrium where births and deaths balance.

Biting is the paper's example of a non-local effect assignment (the biter
writes a ``hurt`` effect onto the victim).  The same behaviour can be written
as a local assignment (the victim collects ``hurt`` from nearby biters),
which is exactly what effect inversion produces; the Figure 5 experiment
compares the two formulations.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class PredatorParameters:
    """Tunable constants of the predator simulation."""

    #: Perception/visibility radius.
    rho: float = 8.0
    #: Biting range (must not exceed ``rho``).
    bite_range: float = 2.0
    #: Energy removed from the victim per bite.
    bite_damage: float = 1.5
    #: Energy gained by the biter per bite landed.
    bite_gain: float = 0.5
    #: Energy spent per tick just by living.
    metabolic_cost: float = 0.4
    #: Energy gained per tick from ambient food.
    grazing_gain: float = 0.6
    #: Initial energy of a fish.
    initial_energy: float = 10.0
    #: Energy above which a fish may spawn.
    spawn_threshold: float = 14.0
    #: Probability of spawning per tick once above the threshold.
    spawn_probability: float = 0.15
    #: Energy given to the child (and removed from the parent).
    spawn_energy: float = 6.0
    #: Swimming speed (distance per tick).
    speed: float = 1.0
    #: Maximum turning angle per tick (radians).
    max_turn: float = 0.8
    #: Side length of the square world.
    region_size: float = 200.0
    #: Integration time step.
    time_step: float = 1.0

    #: When True the update phase may kill/spawn agents.  Disable to keep the
    #: population fixed, which the deterministic equivalence tests require.
    dynamic_population: bool = True

    def reachability(self) -> float:
        """Upper bound on per-tick displacement."""
        return self.speed * self.time_step
