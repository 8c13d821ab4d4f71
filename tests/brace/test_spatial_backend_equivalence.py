"""Bit-identical world states across spatial backends.

The columnar grid is an *execution* strategy, never a semantic one:
``spatial_backend="vectorized"`` (the grid, the default) and ``"python"``
(the linear-scan oracle) must produce exactly the same agent states — on
every executor, for both the fish and the traffic workloads, and through the
BRASIL script front door.  And the backend the configuration names is the
one every shard runs, whatever its extent size.
"""

import pytest

from repro.api import Simulation
from repro.brace.config import BraceConfig
from repro.brace.runtime import BraceRuntime
from repro.brasil import build_script_world, compile_script
from repro.core.agent import Agent
from repro.core.engine import SequentialEngine
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


class BackendSpy(Agent):
    """Records, in its state, whether its query phase ran on the grid."""

    x = StateField(0.0, spatial=True, visibility=2.0)
    y = StateField(0.0, spatial=True, visibility=2.0)
    on_grid = StateField(-1.0)
    grid_seen = EffectField("min")

    def query(self, ctx):
        ctx.visible(self)
        self.grid_seen = 1.0 if ctx.spatial_backend == "vectorized" else 0.0

    def update(self, ctx):
        self.on_grid = self.grid_seen


def build_lopsided_world():
    """200 spies on two strips: shard 0 owns 190, shard 1 only 10.

    Shard 1's extent (10 owned, no replicas: nobody is within reach of the
    strip boundary at x = 50) is far below 64 agents; the world is far
    above it.
    """
    world = World(bounds=BBox([(0, 100), (0, 100)]))
    for index in range(190):
        world.add_agent(BackendSpy(x=1.0 + (index % 19) * 2.0, y=1.0 + (index // 19) * 9.0))
    for index in range(10):
        world.add_agent(BackendSpy(x=70.0 + index * 2.5, y=50.0))
    return world


#: Anisotropic visible region: a narrow x reach and a wide y reach.
ANISOTROPIC_SCRIPT = """
class Walker {
    public state float x : (x + dx); #range[-3, 3];
    public state float y : (y + dy); #range[-8, 8];
    public state float dx : (near > 0) ? (0 - sx / near) * 0.1 : dx;
    public state float dy : (near > 0) ? (0 - sy / near) * 0.1 : dy;

    private effect float sx : sum;
    private effect float sy : sum;
    private effect int near : sum;

    public void run() {
        foreach (Walker w : Extent<Walker>) {
            sx <- w.x - x;
            sy <- w.y - y;
            near <- 1;
        }
    }
}
"""


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
    def test_default_config_runs_the_grid(self, workload):
        assert BraceConfig().spatial_backend == "vectorized"
        world = build_world(workload)
        with BraceRuntime(world, BraceConfig(num_workers=3, ticks_per_epoch=2)) as runtime:
            runtime.run(TICKS)
            assert runtime.config.spatial_backend == "vectorized"
        assert final_states(world) == run_backend(workload, "python", "serial")

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



class TestWhatRanIsWhatIsRecorded:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_small_shard_runs_the_configured_backend(self, executor):
        session = (
            Simulation.from_agents(build_lopsided_world())
            .with_workers(2)
            .with_executor(executor, max_workers=2)
            .with_load_balancing(False)
        )
        with session:
            result = session.run(1)
        assert result.provenance.config.spatial_backend == "vectorized"
        # Every agent's query phase — the 10 on the small shard included —
        # ran on the grid the provenance names.
        assert {state["on_grid"] for state in result.final_states.values()} == {1.0}

    def test_small_extent_contexts_run_the_grid(self):
        from repro.core.context import QueryContext

        for count in (0, 1, 2, 63, 64):
            agents = [BackendSpy(agent_id=i, x=float(i), y=0.0) for i in range(count)]
            assert QueryContext(agents, tick=0, seed=0).spatial_backend == "vectorized"


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

        vectorized = run(None)  # the default: the grid
        assert vectorized == run("python")

    @pytest.mark.parametrize("plan", ["interpreted", "compiled"])
    @pytest.mark.parametrize("spatial", ["python", "vectorized"])
    def test_anisotropic_radii_match_the_scan_oracle(self, spatial, plan):
        compiled = compile_script(ANISOTROPIC_SCRIPT)
        oracle = build_script_world(compiled, num_agents=80, seed=4)
        SequentialEngine(oracle).run(TICKS)

        session = Simulation.from_script(ANISOTROPIC_SCRIPT, num_agents=80, seed=4)
        session.with_workers(3).with_spatial_backend(spatial).with_plan_backend(plan)
        with session:
            session.run(TICKS)
        assert final_states(session.world) == final_states(oracle)


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


class TestBackendOnTheWire:
    @pytest.mark.parametrize("backend", ["python", "vectorized"])
    def test_shard_seed_round_trips_the_settings(self, backend):
        from repro.brace.shards import ShardSeed, make_resident_worker
        from repro.brace.worker import ShardSettings
        from repro.spatial.partitioning import StripPartitioning
        from tests.wire_double import roundtrip

        bounds = BBox(((0.0, 100.0), (0.0, 100.0)))
        partitioning = StripPartitioning.uniform(bounds, 0, 2)
        settings = ShardSettings(
            seed=7,
            check_visibility=False,
            spatial_backend=backend,
            plan_backend="interpreted",
            world_bounds=bounds,
            transport_copies=True,
        )
        agents = [Fish(agent_id=i, x=float(i), y=5.0) for i in range(3)]
        seed = ShardSeed(partitioning.partition(1), partitioning, agents, settings)
        decoded, size = roundtrip(seed)
        assert size > 0
        assert decoded.settings == settings
        assert [agent.state_dict() for agent in decoded.agents] == [
            agent.state_dict() for agent in agents
        ]
        worker = make_resident_worker(1, decoded)
        assert worker.settings == settings
        assert worker.migration_seed().settings == settings

    @pytest.mark.parametrize("backend", ["python", "vectorized"])
    def test_every_shard_runs_the_configured_backend(self, backend):
        from tests.wire_double import CodecRoundTripExecutor

        world = build_lopsided_world()
        config = BraceConfig(num_workers=2, spatial_backend=backend, load_balance=False)
        with BraceRuntime(world, config) as runtime:
            runtime.executor = CodecRoundTripExecutor()
            runtime.run(1)
        expected = 1.0 if backend == "vectorized" else 0.0
        assert {agent.on_grid for agent in world.agents()} == {expected}
