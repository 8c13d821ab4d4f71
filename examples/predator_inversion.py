"""Predator example: non-local effects and effect inversion.

The predator simulation programs biting as a non-local effect assignment,
which forces BRACE to run a second reduce pass every tick.  This example
compiles the BRASIL predator script, lets the compiler invert the non-local
assignments automatically, and compares the two formulations on the BRACE
runtime — a miniature of the paper's Figure 5 experiment.

Run with:  python examples/predator_inversion.py
"""

from repro import Simulation
from repro.brasil import compile_script
from repro.simulations.predator import (
    PREDATOR_NON_LOCAL_SCRIPT,
    PredatorParameters,
    build_predator_world,
)


def run_configuration(label: str, non_local: bool, ticks: int = 10) -> float:
    """Run the hand-written predator model in one of the two formulations."""
    world = build_predator_world(800, PredatorParameters(), seed=11, non_local=non_local)
    session = (
        Simulation.from_agents(world)
        .with_workers(16)
        .with_epochs(ticks)
        .with_non_local_effects(non_local)
        .with_index("grid", check_visibility=False)
        .with_load_balancing(False)
    )
    with session as sim:
        result = sim.run(ticks)
    throughput = result.throughput()
    print(f"{label:35s} {throughput:12,.0f} agent ticks/s"
          f"   ({result.bytes_over_network():,} bytes over network)")
    return throughput


def main() -> None:
    # 1. The BRASIL compiler inverts the non-local script automatically.
    compiled = compile_script(PREDATOR_NON_LOCAL_SCRIPT)
    print("BRASIL predator script:")
    print(f"  non-local assignments in the source: "
          f"{compiled.original_info.non_local_assignment_count}")
    print(f"  effect inversion applied:            {compiled.was_inverted}")
    print(f"  reduce passes needed after compiling: "
          f"{2 if compiled.has_non_local_effects else 1}")
    print()

    # 2. Throughput comparison of the two formulations (hand-written model).
    print("BRACE runtime, 16 workers:")
    non_local = run_configuration("non-local effects (2 reduce passes)", non_local=True)
    local = run_configuration("effect-inverted  (1 reduce pass)", non_local=False)
    print(f"\nimprovement from effect inversion: {local / non_local - 1.0:+.1%}")


if __name__ == "__main__":
    main()
