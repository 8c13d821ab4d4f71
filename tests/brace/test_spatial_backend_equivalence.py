"""Bit-identical world states across spatial backends.

The columnar kernels are an *execution* strategy, never a semantic one:
``spatial_backend="python"`` and ``"vectorized"`` must produce exactly the
same agent states — on every executor, for both the fish and the traffic
workloads, and through the BRASIL script front door whose optimizer now pins
the vectorized backend.
"""

import pytest

from repro.api import Simulation
from repro.brace.config import BraceConfig
from repro.brace.runtime import BraceRuntime
from repro.core.agent import Agent
from repro.core.errors import BraceError
from repro.core.fields import EffectField, StateField
from repro.core.world import World
from repro.simulations.fish.fish import Fish
from repro.simulations.fish.workload import build_fish_world
from repro.simulations.traffic.workload import build_traffic_world
from repro.spatial.bbox import BBox

TICKS = 4


class Star(Agent):
    """Unbounded visibility: its query folds a float over the whole extent,
    in the order ``ctx.agents()`` hands it out — any reordering shows in the
    last bit of ``pull``, which the update stores verbatim."""

    x = StateField(0.0, spatial=True)
    y = StateField(0.0, spatial=True)
    mass = StateField(1.0)
    pull = EffectField("sum", 0.0)

    def query(self, ctx):
        total = 0.0
        for other in ctx.agents():
            total += (other.x - self.x) * other.mass * 0.1
        self.pull = total

    def update(self, ctx):
        self.mass = self.pull


def build_star_world(count=60):
    import random

    rng = random.Random(3)
    world = World(bounds=BBox([(0, 100), (0, 100)]))
    for _ in range(count):
        world.add_agent(
            Star(x=rng.uniform(0, 100), y=rng.uniform(0, 100), mass=rng.uniform(0.1, 3.7))
        )
    return world


def final_states(world):
    return {agent.agent_id: agent.state_dict() for agent in world.agents()}


def build_world(workload):
    if workload == "fish":
        # The canonical Fish class is importable by name, as the process
        # executor's pickling requires.
        return build_fish_world(120, seed=5, fish_class=Fish)
    return build_traffic_world(seed=5, num_vehicles=120)


def run_backend(workload, backend, executor):
    world = build_world(workload)
    config = BraceConfig(
        num_workers=3,
        executor=executor,
        spatial_backend=backend,
        ticks_per_epoch=2,
    )
    with BraceRuntime(world, config) as runtime:
        runtime.run(TICKS)
    return final_states(world)


class TestBackendEquivalence:
    @pytest.mark.parametrize("workload", ["fish", "traffic"])
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_python_and_vectorized_states_bit_identical(self, workload, executor):
        python_states = run_backend(workload, "python", executor)
        vectorized_states = run_backend(workload, "vectorized", executor)
        assert python_states == vectorized_states

    @pytest.mark.parametrize("workload", ["fish", "traffic"])
    def test_auto_matches_forced_backends(self, workload):
        auto_states = run_backend(workload, None, "serial")
        assert auto_states == run_backend(workload, "python", "serial")

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_extent_iteration_order_does_not_depend_on_the_backend(self, executor):
        # ``ctx.agents()`` feeds BRASIL's foreach for unbounded classes; the
        # vectorized backend's snapshot has its own (merged) row order, which
        # must stay out of what user code iterates.
        states = {}
        for backend in ("python", "vectorized"):
            world = build_star_world()
            config = BraceConfig(num_workers=4, executor=executor, spatial_backend=backend)
            with BraceRuntime(world, config) as runtime:
                runtime.run(2)
            states[backend] = final_states(world)
        assert states["python"] == states["vectorized"]

    def test_index_choice_is_bit_neutral(self):
        # Canonical match ordering makes the access path invisible even at
        # the last bit — a stronger form of the old tolerance-based check.
        reference = None
        for index in ("kdtree", "grid", "quadtree", None):
            world = build_world("fish")
            config = BraceConfig(num_workers=3, index=index, cell_size=12.0)
            with BraceRuntime(world, config) as runtime:
                runtime.run(TICKS)
            states = final_states(world)
            if reference is None:
                reference = states
            else:
                assert states == reference, f"index {index!r} changed states"


class TestScriptFrontDoor:
    def test_script_session_backends_bit_identical(self):
        from repro.simulations.predator.brasil_scripts import FISH_SCHOOL_SCRIPT

        def run(backend):
            session = Simulation.from_script(
                FISH_SCHOOL_SCRIPT, num_agents=90, seed=9
            ).with_workers(3)
            if backend is not None:
                session = session.with_spatial_backend(backend)
            with session:
                result = session.run(TICKS)
            return result.final_states

        vectorized = run(None)  # optimizer pins "vectorized" for uniform radii
        assert vectorized == run("python")

    def test_optimizer_pins_vectorized_for_uniform_radii(self):
        from repro.brasil import compile_script
        from repro.simulations.predator.brasil_scripts import FISH_SCHOOL_SCRIPT

        compiled = compile_script(FISH_SCHOOL_SCRIPT)
        assert compiled.index_selection.spatial_backend == "vectorized"
        assert compiled.brace_config_overrides()["spatial_backend"] == "vectorized"

    def test_explicit_config_backend_beats_the_pin(self):
        from repro.brasil import compile_script, config_for_script
        from repro.simulations.predator.brasil_scripts import FISH_SCHOOL_SCRIPT

        compiled = compile_script(FISH_SCHOOL_SCRIPT)
        # No explicit choice: the optimizer's pin applies.
        assert config_for_script(compiled).spatial_backend == "vectorized"
        # An explicitly configured backend survives the pin...
        base = BraceConfig(spatial_backend="python")
        assert config_for_script(compiled, base).spatial_backend == "python"
        # ...including when the access path is forced.
        assert (
            config_for_script(compiled, base, index="kdtree").spatial_backend
            == "python"
        )
        # A forced access path alone drops the pin back to auto.
        assert config_for_script(compiled, index="kdtree").spatial_backend is None


class TestConfigSurface:
    def test_config_rejects_unknown_backend(self):
        with pytest.raises(BraceError, match="spatial backend"):
            BraceConfig(spatial_backend="simd").validate()

    def test_builder_rejects_unknown_backend(self):
        world = build_world("fish")
        with pytest.raises(BraceError, match="spatial backend"):
            Simulation.from_agents(world).with_spatial_backend("simd")

    def test_builder_accepts_and_round_trips_backend(self):
        world = build_world("fish")
        session = Simulation.from_agents(world).with_spatial_backend("vectorized")
        assert session._builder.build().spatial_backend == "vectorized"
