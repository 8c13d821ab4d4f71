"""BRASIL compilation pipeline walkthrough.

Shows what the compiler does to the paper's fish script: parsing, semantic
analysis (state-effect pattern enforcement), effect inversion and the
plan-kernel proof; then translates the query phase to a monad algebra plan
and optimizes it (the Appendix B library, which the compiler itself does not
run) — and finally runs the compiled agent class on the sequential engine.

Run with:  python examples/brasil_compile.py
"""

import numpy as np

from repro import SequentialEngine, World
from repro.brasil import compile_script, kernel_fallback_reasons
from repro.brasil.optimizer import optimize_plan
from repro.brasil.translate import translate_query
from repro.simulations.predator.brasil_scripts import FISH_SCHOOL_SCRIPT
from repro.spatial.bbox import BBox


def main() -> None:
    compiled = compile_script(FISH_SCHOOL_SCRIPT)

    print("class:", compiled.class_name)
    print("state fields: ", compiled.info.state_field_names)
    print("effect fields:", compiled.info.effect_field_names,
          "combinators:", compiled.info.effect_combinators)
    print("spatial fields:", compiled.info.spatial_field_names,
          "visibility radii:", compiled.info.visibility_radii)
    print()
    print("non-local effect assignments in the source:",
          compiled.original_info.non_local_assignment_count)
    print("effect inversion applied:", compiled.was_inverted,
          "-> non-local assignments after compilation:",
          compiled.info.non_local_assignment_count)
    print("interpreted phases (none: both run as kernels):",
          kernel_fallback_reasons(compiled.agent_class))
    print()
    optimized = optimize_plan(translate_query(compiled.class_decl, compiled.info))
    report = optimized.report
    print("monad algebra plan:",
          f"{optimized.original_size} operators ->",
          f"{optimized.optimized_size} after optimization")
    print("  rewrites applied:", report.total,
          f"(identity={report.identity_eliminations},"
          f" map fusion={report.map_fusions},"
          f" singleton={report.singleton_flattenings},"
          f" select fusion={report.selection_fusions},"
          f" dead tuples={report.dead_tuple_eliminations})")
    print()

    # Run the compiled class for a few ticks.
    world = World(bounds=BBox(((-100.0, 100.0), (-100.0, 100.0))), seed=1)
    rng = np.random.default_rng(1)
    for _ in range(200):
        world.add_agent(
            compiled.make_agent(
                x=float(rng.uniform(-50, 50)),
                y=float(rng.uniform(-50, 50)),
                vx=float(rng.uniform(-1, 1)),
                vy=float(rng.uniform(-1, 1)),
            )
        )
    engine = SequentialEngine(world)
    engine.run(10)
    print(f"ran 10 ticks of the compiled script over {world.agent_count()} fish "
          f"({engine.statistics.throughput():,.0f} agent ticks/s)")


if __name__ == "__main__":
    main()
