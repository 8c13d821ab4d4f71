"""Bit-identical world states across plan backends.

The plan kernels (:mod:`repro.brasil.kernels`) are an *execution* strategy,
never a semantic one: ``plan_backend="interpreted"`` and ``"compiled"`` must
produce exactly the same agent states as the naive
:class:`~repro.core.engine.SequentialEngine` — on every executor, under both
spatial backends, for both the fish-school and ring-traffic BRASIL
workloads, through dynamic populations and across a pause/resume boundary.
This is the conformance matrix backing the ``plan_backend`` knob's "only
trades speed" promise.
"""

import pytest

from repro.api import Simulation
from repro.brace.config import BraceConfig
from repro.brasil import compile_script, kernel_fallback_reasons
from repro.brasil.runner import build_script_world
from repro.core.agent import Agent
from repro.core.engine import SequentialEngine
from repro.core.errors import BraceError
from repro.core.fields import StateField
from repro.core.soa import states_equal
from repro.simulations.predator.brasil_scripts import FISH_SCHOOL_SCRIPT
from repro.simulations.traffic.brasil_scripts import TRAFFIC_SCRIPT

TICKS = 4
NUM_AGENTS = 100
SCRIPTS = {"fish": FISH_SCHOOL_SCRIPT, "traffic": TRAFFIC_SCRIPT}

SPATIAL_BACKENDS = ("python", "vectorized")
PLAN_BACKENDS = ("interpreted", "compiled")


def run_cell(workload, executor, spatial, plan):
    config = BraceConfig(
        num_workers=3,
        executor=executor,
        spatial_backend=spatial,
        plan_backend=plan,
        ticks_per_epoch=2,
    )
    with Simulation.from_script(
        SCRIPTS[workload], config=config, num_agents=NUM_AGENTS, seed=5
    ) as session:
        return session.run(TICKS).final_states


@pytest.fixture(scope="module")
def baseline():
    # The oracle every cell must reproduce exactly: one naive tick loop.
    states = {}
    for workload, source in SCRIPTS.items():
        world = build_script_world(compile_script(source), num_agents=NUM_AGENTS, seed=5)
        SequentialEngine(world).run(TICKS)
        states[workload] = {agent.agent_id: agent.state_dict() for agent in world.agents()}
    return states


class TestPlanBackendMatrix:
    @pytest.mark.parametrize("workload", sorted(SCRIPTS))
    @pytest.mark.parametrize("spatial", SPATIAL_BACKENDS)
    @pytest.mark.parametrize("plan", PLAN_BACKENDS)
    def test_serial_matrix_bit_identical(self, baseline, workload, spatial, plan):
        states = run_cell(workload, "serial", spatial, plan)
        assert states_equal(states, baseline[workload])

    @pytest.mark.parametrize("workload", sorted(SCRIPTS))
    def test_process_compiled_matches_sequential(self, baseline, workload):
        states = run_cell(workload, "process", "vectorized", "compiled")
        assert states_equal(states, baseline[workload])

    @pytest.mark.slow
    @pytest.mark.parametrize("workload", sorted(SCRIPTS))
    @pytest.mark.parametrize("spatial", SPATIAL_BACKENDS)
    @pytest.mark.parametrize("plan", PLAN_BACKENDS)
    def test_process_matrix_bit_identical(self, baseline, workload, spatial, plan):
        states = run_cell(workload, "process", spatial, plan)
        assert states_equal(states, baseline[workload])

    def test_workloads_actually_compile(self):
        # Non-vacuity: both matrix workloads exercise real kernels.
        for workload, source in SCRIPTS.items():
            assert kernel_fallback_reasons(compile_script(source).agent_class) == {}, workload


# ---------------------------------------------------------------------------
# Dynamic populations: births and deaths while kernels execute
# ---------------------------------------------------------------------------

_CRITTER_SCRIPT = """
class Critter {
    public state float x : (x + min(max(w, 0 - 0.5), 0.5)); #visibility[2];
    public state float y : (y - min(max(w, 0 - 0.5), 0.5)); #visibility[2];
    public state float w : (cnt > 0) ? (w + acc / cnt) * 0.5 : w;
    private effect float acc : sum;
    private effect int cnt : count;
    public void run() {
        foreach (Critter p : Extent<Critter>) {
            acc <- (x - p.x) + (y - p.y);
            cnt <- 1;
        }
    }
}
"""

_CRITTER = compile_script(_CRITTER_SCRIPT)


class Drone(Agent):
    """Hand-written spawner: births compiled Critters, then dies.

    Lives alongside the compiled class so the update phase runs its kernel
    over a population that grows and shrinks mid-run.
    """

    x = StateField(default=0.0, spatial=True, visibility=2.0)
    y = StateField(default=0.0, spatial=True, visibility=2.0)
    age = StateField(default=0.0)

    def query(self, ctx) -> None:
        pass

    def update(self, ctx) -> None:
        self.age = self.age + 1.0
        if self.age <= 3.0:
            child = _CRITTER.make_agent(
                x=self.x + 0.25 * self.age, y=self.y - 0.25 * self.age, w=0.125
            )
            ctx.spawn(self, child)
        if self.age >= 4.0:
            ctx.kill(self)


def _run_dynamic(plan_backend):
    from repro.brace.runtime import BraceRuntime
    from repro.core.world import World
    from repro.spatial.bbox import BBox

    world = World(bounds=BBox(((-20.0, 20.0), (-20.0, 20.0))), seed=3)
    for i in range(24):
        world.add_agent(_CRITTER.make_agent(x=float(i) - 12.0, y=float(i % 5) - 2.0))
    for i in range(4):
        world.add_agent(Drone(x=4.0 * i - 8.0, y=2.0 * i - 3.0))
    config = BraceConfig(num_workers=3, plan_backend=plan_backend, ticks_per_epoch=2)
    with BraceRuntime(world, config) as runtime:
        runtime.run(6)
    states = {agent.agent_id: agent.state_dict() for agent in world.agents()}
    return states, world.agent_count()


class TestDynamicPopulation:
    def test_births_and_deaths_bit_identical(self):
        interpreted, interp_count = _run_dynamic("interpreted")
        compiled, compiled_count = _run_dynamic("compiled")
        assert states_equal(compiled, interpreted)
        assert compiled_count == interp_count
        # Non-vacuity: the population actually changed (drones died after
        # spawning three critters each).
        assert interp_count == 24 + 4 * 3


# ---------------------------------------------------------------------------
# Pause/resume boundary
# ---------------------------------------------------------------------------


class TestPauseResumeBoundary:
    def test_compiled_run_survives_pause_resume(self):
        def split_run(plan_backend):
            session = Simulation.from_script(
                FISH_SCHOOL_SCRIPT, num_agents=80, seed=9
            ).with_workers(3).with_plan_backend(plan_backend)
            with session:
                session.run(2)
                session.pause()
                session.resume()
                result = session.run(2)
            return result.final_states

        straight = Simulation.from_script(
            FISH_SCHOOL_SCRIPT, num_agents=80, seed=9
        ).with_workers(3).with_plan_backend("interpreted")
        with straight:
            reference = straight.run(TICKS).final_states

        assert states_equal(split_run("compiled"), reference)
        assert states_equal(split_run("interpreted"), reference)


# ---------------------------------------------------------------------------
# Configuration surface and provenance
# ---------------------------------------------------------------------------


class TestConfigSurface:
    def test_config_rejects_unknown_backend(self):
        with pytest.raises(BraceError, match="plan backend"):
            BraceConfig(plan_backend="jit").validate()

    def test_builder_rejects_unknown_backend(self):
        session = Simulation.from_script(FISH_SCHOOL_SCRIPT, num_agents=10, seed=1)
        with pytest.raises(BraceError, match="plan backend"):
            session.with_plan_backend("jit")

    @pytest.mark.parametrize("backend", [None, "auto"])
    def test_there_is_no_automatic_backend(self, backend):
        with pytest.raises(BraceError, match="'compiled'.*'interpreted'"):
            BraceConfig(plan_backend=backend).validate()
        session = Simulation.from_script(FISH_SCHOOL_SCRIPT, num_agents=10, seed=1)
        with pytest.raises(BraceError, match="'compiled'.*'interpreted'"):
            session.with_plan_backend(backend)

    def test_builder_accepts_and_round_trips_backend(self):
        session = Simulation.from_script(
            FISH_SCHOOL_SCRIPT, num_agents=10, seed=1
        ).with_plan_backend("interpreted")
        assert session._builder.build().plan_backend == "interpreted"

    @pytest.mark.parametrize("backend", ["compiled", "interpreted"])
    def test_provenance_records_the_configured_backend(self, backend):
        def run(agents):
            session = Simulation.from_agents(agents, bounds=((-20.0, 20.0), (-20.0, 20.0)))
            with session.with_workers(2).with_plan_backend(backend) as sim:
                return sim.run(1).provenance.config.plan_backend

        # The default is "compiled"; whatever is configured is recorded,
        # for a compilable script and for hand-written agents alike.
        assert BraceConfig().plan_backend == "compiled"
        assert run([_CRITTER.make_agent(x=float(i), y=0.0) for i in range(6)]) == backend
        assert run([Drone(x=float(i), y=1.0) for i in range(3)]) == backend
