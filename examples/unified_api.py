"""One front door: the same model through both `Simulation` entry points.

The ring-road car model exists twice in this repo — hand-written against the
agent framework (`repro.simulations.traffic.RingCar`) and as BRASIL source
(`TRAFFIC_SCRIPT`).  This example runs both formulations through the *same*
`Simulation` session API, on both the serial and the process executor
backends, and asserts that all four runs end in bit-identical agent states —
the paper's "write the model once, the system owns parallelization" promise,
end to end.  It also shows what a populated `RunResult` carries: statistics,
measured IPC bytes and full provenance (model, config, seed, backend,
script hash).

Run with:  python examples/unified_api.py
"""

from repro.api import Simulation
from repro.simulations.traffic import RING_LENGTH, build_ring_world
from repro.simulations.traffic.brasil_scripts import TRAFFIC_SCRIPT

TICKS = 12
NUM_CARS = 60
SEED = 9


def from_agents(executor: str) -> Simulation:
    """Session over hand-written Python agents."""
    return (
        Simulation.from_agents(build_ring_world(NUM_CARS, SEED))
        .with_executor(executor, max_workers=4)
        .with_workers(4)
        .with_index("grid")
    )


def from_script(executor: str) -> Simulation:
    """Session compiled from BRASIL source — same model, same session API."""
    return (
        Simulation.from_script(
            TRAFFIC_SCRIPT, num_agents=NUM_CARS, seed=SEED, bounds=((0.0, RING_LENGTH),)
        )
        .with_executor(executor, max_workers=4)
        .with_workers(4)
        .with_index("grid")
    )


def main() -> None:
    results = {}
    for label, make_session in (("agents", from_agents), ("script", from_script)):
        for executor in ("serial", "process"):
            with make_session(executor) as sim:
                result = sim.run(TICKS)
            results[(label, executor)] = result
            print(f"{label:>6} on {executor:>7}: {result.summary()}")
            print()

    reference = results[("agents", "serial")]
    for key, result in results.items():
        assert result.same_states_as(reference), f"{key} diverged from agents/serial"
        assert result.ticks == TICKS and result.num_agents == NUM_CARS
        assert result.metrics.ticks, "per-tick statistics must be populated"
        assert result.provenance.backend == key[1]
    # Script provenance carries the source hash; agent provenance does not.
    assert results[("script", "serial")].provenance.script_hash is not None
    assert reference.provenance.script_hash is None
    # The process runs actually crossed a process boundary: measured IPC > 0.
    assert results[("agents", "process")].ipc_bytes > 0
    assert results[("script", "process")].ipc_bytes > 0

    print("all four runs produced bit-identical final agent states")


if __name__ == "__main__":
    main()
