"""BRASIL-to-parallel-execution walkthrough.

The paper's end-to-end promise: write the simulation in BRASIL once, and the
system owns parallelization.  This example compiles the fish-school script,
shows what the compiler decided (effect inversion, reduce passes, plan
kernels), then runs the *same* script on the serial, thread and process
executor backends and checks the final agent states are bit-identical.

Run with:  python examples/brasil_parallel.py
"""

from repro import Simulation
from repro.brasil import compile_script
from repro.simulations.predator.brasil_scripts import FISH_SCHOOL_SCRIPT

TICKS = 5
NUM_FISH = 150
SEED = 7


def main() -> None:
    compiled = compile_script(FISH_SCHOOL_SCRIPT)
    print("class:", compiled.class_name)
    print("effect inversion applied:", compiled.was_inverted,
          "-> reduce passes per tick:", 2 if compiled.has_non_local_effects else 1)
    selection = compiled.plan_selection
    print(f"plan kernels: query={selection.query_compiled} update={selection.update_compiled}")
    print("  reason:", selection.reason)
    print()

    results = {}
    for executor in ("serial", "thread", "process"):
        session = (
            Simulation.from_script(FISH_SCHOOL_SCRIPT, num_agents=NUM_FISH, seed=SEED)
            .with_workers(4)
            .with_executor(executor, max_workers=4)
        )
        with session as sim:
            run = sim.run(TICKS)
        results[executor] = run
        wall = sum(tick.wall_seconds for tick in run.metrics.ticks)
        print(f"{executor:>8}: {NUM_FISH} fish x {TICKS} ticks in {wall:.3f}s wall "
              f"({run.throughput():,.0f} agent ticks per virtual second, "
              f"{run.ipc_bytes:,} measured IPC bytes)")

    serial_states = results["serial"].final_states
    for executor in ("thread", "process"):
        identical = results[executor].final_states == serial_states
        print(f"{executor} states bit-identical to serial: {identical}")
        assert identical, f"{executor} diverged from serial"


if __name__ == "__main__":
    main()
