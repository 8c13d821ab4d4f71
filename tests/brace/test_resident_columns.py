"""Shard-resident columns against the naive oracle.

A shard whose compiled class ran both kernels keeps the update kernel's
columns as the owned rows' state, ahead of the agent objects, and writes
them back only where something reads the objects (:meth:`repro.brace.
worker.Worker.materialize`, the map phase's shipped rows, the driver's
world read).  Every run here is compared with
:func:`~repro.core.soa.states_equal` against :class:`~repro.core.engine.
SequentialEngine` after every tick.  A read of the states materializes, so
"after tick ``k``" is a fresh run of ``k`` ticks: residency spans every
tick before the read, as it does in an unread run.

The runs cover the differential generator's scripts and both predator
scripts; serial (1 and 2 workers), thread, process and the codec double;
and the points where residency must end: a checkpoint and ``recover()``,
pause and resume, a forced shard migration and a rebalance, births and
deaths from a mixed world, a kernel fallback on a later tick, an observer
that writes through ``sim.world``, and a bare ``run_tick()`` loop that
reads ``runtime.world``.  Exact call and row counts close the loop: a
steady one-worker tick packs, writes back and harvests no object, and
``rows_materialized_per_worker`` counts exactly the shipped rows and the
captured shards.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import Simulation
from repro.brace import worker as worker_module
from repro.brace.config import BraceConfig
from repro.brace.replication import replication_targets_batch
from repro.brace.runtime import BraceRuntime
from repro.brace.worker import ShardSettings, Worker
from repro.brasil import compile_script, kernels
from repro.brasil.runner import build_script_world
from repro.core import soa
from repro.core.agent import Agent
from repro.core.engine import SequentialEngine
from repro.core.fields import StateField
from repro.core.ordering import agent_sort_key
from repro.core.soa import states_equal
from repro.simulations.predator.brasil_scripts import (
    PREDATOR_LOCAL_SCRIPT,
    PREDATOR_NON_LOCAL_SCRIPT,
)
from repro.spatial.bbox import BBox
from repro.spatial.partitioning import StripPartitioning

from tests.brace.test_effect_handoff import EDGE_BOUNDS, EDGE_CELLS, EDGE_SCRIPT, HUGE
from tests.brasil.test_plan_compile_differential import brasil_scripts
from tests.conftest import SpawningAgent
from tests.wire_double import CodecRoundTripExecutor

SEED = 5
AGENTS = 120
TICKS = 4
#: Constant density with the reference predator world (8000 agents on a
#: 170-unit square), and head-room in y: see bench/workloads.py.
HALF = 85.0 * math.sqrt(AGENTS / 8000)
BOUNDS = BBox(((-HALF, HALF), (-HALF - 40.0, HALF + 40.0)))

#: ``(executor, workers)``: "codec" is the serial wire double.
EXECUTORS = [("serial", 1), ("serial", 2), ("thread", 2), ("process", 2), ("codec", 2)]
IN_PROCESS = [("serial", 1), ("serial", 2), ("thread", 2)]


def _predator_world(source: str, inversion: str):
    compiled = compile_script(source, effect_inversion=inversion)
    world = build_script_world(
        compiled, num_agents=AGENTS, bounds=((-HALF, HALF), (-HALF, HALF)), seed=SEED
    )
    world.bounds = BOUNDS
    return world, compiled.has_non_local_effects


def _states(world) -> dict:
    return {agent.agent_id: agent.state_dict() for agent in world.agents()}


def _oracle(build, ticks: int, between=None) -> list[dict]:
    """The naive run's states after each of ``ticks`` ticks; ``between(world,
    tick)`` runs after tick ``tick`` (an observer's write)."""
    world, _ = build()
    engine = SequentialEngine(world)
    out = []
    for tick in range(ticks):
        engine.run_tick()
        if between is not None:
            between(world, tick)
        out.append(_states(world))
    return out


def _runtime(world, executor: str, workers: int, non_local: bool, **options) -> BraceRuntime:
    options.setdefault("load_balance", False)
    options.setdefault("max_workers", 2 if executor in ("thread", "process", "cluster") else None)
    config = BraceConfig(
        num_workers=workers,
        executor="serial" if executor == "codec" else executor,
        non_local_effects=non_local,
        **options,
    )
    runtime = BraceRuntime(world, config)
    if executor == "codec":
        runtime.executor = CodecRoundTripExecutor()
    return runtime


def _single_worker(world) -> Worker:
    """One resident worker owning all of ``world``, driven by hand."""
    partitioning = StripPartitioning.uniform(world.bounds, 0, 1)
    worker = Worker(
        0,
        partitioning.partition(0),
        partitioning=partitioning,
        settings=ShardSettings(seed=world.seed, world_bounds=world.bounds),
    )
    for agent in world.agents():
        worker.add_owned(agent)
    return worker


def _synced_states(runtime: BraceRuntime) -> dict:
    runtime.sync_world()
    return _states(runtime.world)


def _assert_every_tick(run, oracle: list[dict]) -> None:
    """``run(k)`` is a fresh run's states after ``k`` unread ticks."""
    for ticks, expected in enumerate(oracle, start=1):
        assert states_equal(run(ticks), expected), f"after {ticks} ticks"


def _plain_run(build, executor, workers, **options):
    def run(ticks: int) -> dict:
        world, non_local = build()
        with _runtime(world, executor, workers, non_local, **options) as runtime:
            for _ in range(ticks):
                runtime.run_tick()
            return _synced_states(runtime)

    return run


class Reaper(Agent):
    """A hand-written agent that, from afar, kills the compiled agent named
    by ``victim`` at its second update and spawns a compiled child at its
    third: births and deaths on a shard whose columns are resident."""

    x = StateField(0.0, spatial=True, visibility=1.0)
    y = StateField(0.0, spatial=True, visibility=1.0)
    victim = StateField(-1)
    age = StateField(0)
    #: The compiled class its child belongs to (set by the world builder).
    child_class = None

    def update(self, ctx):
        self.age = self.age + 1
        if self.age == 2:
            ctx.kill(SimpleNamespace(agent_id=self.victim))  # kill reads the id only
        if self.age == 3:
            ctx.spawn(self, self.child_class(x=HALF / 2, y=0.0))


PREDATORS = {
    "local": lambda: _predator_world(PREDATOR_LOCAL_SCRIPT, "auto"),
    "non-local": lambda: _predator_world(PREDATOR_NON_LOCAL_SCRIPT, "off"),
}


class TestDifferential:
    @pytest.mark.parametrize("executor, workers", EXECUTORS)
    @pytest.mark.parametrize("script", sorted(PREDATORS))
    def test_predator_scripts(self, script, executor, workers):
        build = PREDATORS[script]
        _assert_every_tick(_plain_run(build, executor, workers), _oracle(build, TICKS))

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        source=brasil_scripts(),
        seed=st.integers(min_value=0, max_value=2**20),
        layout=st.sampled_from([("serial", 1), ("serial", 2), ("codec", 2)]),
    )
    def test_generated_scripts(self, source, seed, layout):
        compiled = compile_script(source)

        def build():
            world = build_script_world(
                compiled, num_agents=12, bounds=((0.0, 6.0), (0.0, 6.0)), seed=seed
            )
            return world, compiled.has_non_local_effects

        _assert_every_tick(_plain_run(build, *layout), _oracle(build, 3))


class TestInterruptions:
    @pytest.mark.parametrize("executor, workers", [("serial", 2), ("codec", 2), ("process", 2)])
    def test_checkpoint_and_recover(self, executor, workers):
        build = PREDATORS["non-local"]

        def run(ticks: int) -> dict:
            world, non_local = build()
            with _runtime(
                world, executor, workers, non_local, checkpointing=True, ticks_per_epoch=2
            ) as runtime:
                done, recovered = 0, False
                while done < ticks:
                    runtime.run_tick()
                    done += 1
                    if done == 3 and not recovered:
                        # A checkpoint was captured after tick 2; tick 3 is lost.
                        done -= runtime.recover()
                        recovered = True
                return _synced_states(runtime)

        _assert_every_tick(run, _oracle(build, TICKS + 1))

    @pytest.mark.parametrize("executor, workers", [("serial", 1), ("serial", 2), ("process", 2)])
    def test_pause_and_resume(self, executor, workers):
        def session():
            sim = Simulation.from_script(
                PREDATOR_LOCAL_SCRIPT,
                num_agents=AGENTS,
                bounds=((-HALF, HALF), (-HALF, HALF)),
                seed=SEED,
            )
            sim.world.bounds = BOUNDS
            return (
                sim.with_workers(workers)
                .with_executor(executor, max_workers=2 if executor == "process" else None)
                .with_load_balancing(False)
            )

        def run(ticks: int) -> dict:
            with session() as sim:
                sim.on_tick(lambda event: event.tick == 1 and sim.pause())
                sim.run(ticks)
                if sim.paused:
                    sim.resume()
                    sim.run(ticks - sim.tick)
                return sim.states()

        _assert_every_tick(run, _oracle(PREDATORS["local"], TICKS))

    @pytest.mark.parametrize("executor", ["process", "codec"])
    def test_forced_shard_migration(self, executor):
        build = PREDATORS["non-local"]

        def run(ticks: int, plan_backend: str = "compiled"):
            world, non_local = build()
            placements = []
            with _runtime(world, executor, 2, non_local, plan_backend=plan_backend) as runtime:
                for tick in range(ticks):
                    runtime.run_tick()
                    if tick == 1:
                        if executor == "process":
                            runtime.migrate_shard(0, 1)
                        else:
                            runtime._apply_new_partitioning()  # the adopt rounds only
                    placements.append(runtime.owned_counts())
                return _synced_states(runtime), placements

        _assert_every_tick(lambda ticks: run(ticks)[0], _oracle(build, TICKS))
        # The adopt rounds placed every agent by its current position: as a
        # run that never keeps columns resident did.
        assert run(TICKS)[1] == run(TICKS, "interpreted")[1]

    def test_rebalance(self):
        def build():
            world, non_local = _predator_world(PREDATOR_LOCAL_SCRIPT, "auto")
            # Every agent in the left third of the box: the strips rebalance.
            world.bounds = BBox(((-HALF, 5 * HALF), BOUNDS.intervals[1]))
            return world, non_local

        def run(ticks: int, plan_backend: str = "compiled"):
            world, non_local = build()
            with _runtime(
                world,
                "serial",
                3,
                non_local,
                load_balance=True,
                load_balance_threshold=1.1,
                ticks_per_epoch=1,
                plan_backend=plan_backend,
            ) as runtime:
                decisions = [repr(runtime.master.partitioning.partitions())]
                for _ in range(ticks):
                    stats = runtime.run_tick()
                    decisions.append(
                        (
                            runtime.owned_counts(),
                            repr(runtime.master.partitioning.partitions()),
                            stats.virtual_seconds,
                        )
                    )
                return _synced_states(runtime), decisions

        _assert_every_tick(lambda ticks: run(ticks)[0], _oracle(build, TICKS))
        # The balancer read the same coordinates, and moved the same agents,
        # as a run that never keeps columns resident.
        _, decisions = run(TICKS)
        assert decisions == run(TICKS, "interpreted")[1]
        assert decisions[1][1] != decisions[0]  # it rebalanced, on resident columns

    @pytest.mark.parametrize("executor, workers", [("serial", 2), ("thread", 2), ("codec", 2)])
    def test_births_and_deaths_in_a_mixed_world(self, executor, workers):
        def build():
            world, non_local = _predator_world(PREDATOR_LOCAL_SCRIPT, "auto")
            rng = np.random.default_rng(SEED)
            # Crowded spawners die in the left strip; the right one starts
            # compiled only (resident) until a lone spawner's child, born
            # just across the strip boundary, lands in it.
            for _ in range(40):
                world.add_agent(
                    SpawningAgent(
                        x=float(rng.uniform(-HALF, -HALF / 2)),
                        y=float(rng.uniform(-HALF, HALF)),
                    )
                )
            for x, y in ((-0.8, HALF + 20.0), (-6.0, HALF + 32.0)):
                world.add_agent(SpawningAgent(x=x, y=y))
            compiled = [agent for agent in world.agents() if not isinstance(agent, SpawningAgent)]
            Reaper.child_class = type(compiled[0])
            victim = max(compiled, key=lambda agent: agent.x)
            world.add_agent(Reaper(x=-HALF + 1.0, y=HALF + 38.0, victim=victim.agent_id))
            return world, non_local

        materialized = []

        def run(ticks: int) -> dict:
            world, non_local = build()
            with _runtime(world, executor, workers, non_local) as runtime:
                for _ in range(ticks):
                    stats = runtime.run_tick()
                    materialized.append(stats.rows_materialized_per_worker)
                return _synced_states(runtime)

        oracle = _oracle(build, TICKS + 4)
        _assert_every_tick(run, oracle)
        populations = [len(states) for states in oracle]
        assert max(populations) > populations[0] > min(populations)  # births, deaths
        if executor != "codec":
            assert any(any(rows) for rows in materialized)

    def test_kernel_fallback_on_a_later_tick(self, monkeypatch):
        compiled = compile_script(_NAN_LATER_SCRIPT)
        assert kernels.kernel_fallback_reasons(compiled.agent_class) == {}
        initial = [{"x": 0.25 * index, "y": 0.0, "w": 0.5} for index in range(8)]
        initial[3]["w"] = 1e306  # w * 1000 overflows: inf - inf is NaN

        def build():
            return build_script_world(compiled, initial_states=initial), False

        hits = []
        attempt = kernels.try_compiled_query_phase

        def recorded(*args, **kwargs):
            hits.append(attempt(*args, **kwargs))
            return hits[-1]

        monkeypatch.setattr(kernels, "try_compiled_query_phase", recorded)
        oracle = _oracle(build, TICKS)
        materialized = []

        def run(ticks: int) -> dict:
            hits.clear()
            world, non_local = build()
            with _runtime(world, "serial", 1, non_local) as runtime:
                for _ in range(ticks):
                    materialized.append(runtime.run_tick().rows_materialized_per_worker)
                return _synced_states(runtime)

        _assert_every_tick(run, oracle)
        # Ticks 0 and 1 compile; tick 1 writes the NaN into the resident
        # columns, and tick 2's min refuses it: the interpreted rerun reads
        # the objects, written back first.
        assert hits == [True, True, False, False]
        assert materialized[-4:] == [[0], [0], [len(initial)], [0]]

    @pytest.mark.parametrize("partials", [{"n": 2**63}, {"high": HUGE, "total": 1.0}])
    def test_a_partial_no_column_holds_after_a_resident_tick(self, partials):
        """The hand-off that absorbed the resident columns is written back
        whole — state too — when a routed partial forces the objects."""

        def ticks(backend: str) -> dict:
            compiled = compile_script(EDGE_SCRIPT)
            partitioning = StripPartitioning.uniform(EDGE_BOUNDS, 0, 1)
            worker = Worker(
                0,
                partitioning.partition(0),
                partitioning=partitioning,
                settings=ShardSettings(seed=SEED, plan_backend=backend, world_bounds=EDGE_BOUNDS),
            )
            for index in range(EDGE_CELLS):
                worker.add_owned(
                    compiled.make_agent(
                        agent_id=index, x=1.0 + index % 4, y=1.0 + index // 4, w=0.25 * index
                    )
                )
            for tick in range(2):
                worker.distribute()
                worker.run_query_phase(tick)
                if tick:
                    worker.merge_remote_partials(0, partials)
                    assert worker._effect_handoff is None  # materialized
                worker.run_update_phase(tick)
            return worker.collect_states()

        assert states_equal(ticks("compiled"), ticks("interpreted"))

    def test_ownership_edits_on_a_resident_shard(self):
        build = PREDATORS["local"]
        world, _ = build()
        worker = _single_worker(world)
        for tick in range(3):
            worker.distribute()
            worker.run_query_phase(tick)
            worker.run_update_phase(tick)
            assert worker.has_resident()
            first, last = min(worker.owned), max(worker.owned)
            if tick == 0:
                worker.add_owned(worker.remove_owned(first))  # out and back in
            elif tick == 1:
                worker.add_owned(worker.owned[last])  # replaces its own row
        assert states_equal(worker.collect_states(), _oracle(build, 3)[-1])

    def test_epoch_reads_see_current_positions(self):
        """The balancer's coordinates and a repartitioning's placement read
        the objects: a shard whose columns ran ahead writes them back first.
        The split runs between the first agent's stale and current x, so
        either read of a stale object misplaces it."""
        build = PREDATORS["local"]
        world, _ = build()
        initial = _states(world)
        worker = _single_worker(world)
        for tick in range(3):
            worker.distribute()
            worker.run_query_phase(tick)
            worker.run_update_phase(tick)
        current = _oracle(build, 3)[-1]
        canonical = sorted(current, key=agent_sort_key)
        assert worker.collect_coordinates(0) == [current[i]["x"] for i in canonical]

        worker = _single_worker(build()[0])
        for tick in range(3):
            worker.distribute()
            worker.run_query_phase(tick)
            worker.run_update_phase(tick)
        first = canonical[0]
        assert initial[first]["x"] != current[first]["x"]
        split = StripPartitioning(
            world.bounds, 0, [(initial[first]["x"] + current[first]["x"]) / 2]
        )
        outgoing = worker.adopt_partitioning(split, split.partition(0))
        moved = {agent.agent_id for agents in outgoing.values() for agent in agents}
        assert moved == {
            agent_id
            for agent_id, state in current.items()
            if split.partition_of((state["x"], state["y"])) != 0
        }

    def test_a_failed_update_round_leaves_the_last_state(self, monkeypatch):
        build = PREDATORS["local"]
        world, _ = build()
        worker = _single_worker(world)
        for tick in range(2):
            worker.distribute()
            worker.run_query_phase(tick)
            worker.run_update_phase(tick)
        worker.distribute()
        worker.run_query_phase(2)

        def broken(*args, **kwargs):
            raise RuntimeError("update round lost")

        monkeypatch.setattr(kernels.UpdateKernel, "run", broken)
        with pytest.raises(RuntimeError):
            worker.run_update_phase(2)
        # The query kernel's table was the state, ahead of the objects.
        assert states_equal(worker.collect_states(), _oracle(build, 2)[-1])

    @pytest.mark.parametrize("executor, workers", IN_PROCESS)
    def test_observer_writes_through_sim_world(self, executor, workers):
        def nudge(world, tick):
            if tick in (0, 2):
                agent = world.get_agent(min(world.agent_ids()))
                agent.x = agent.x + 0.75

        def run(ticks: int) -> dict:
            sim = Simulation.from_script(
                PREDATOR_LOCAL_SCRIPT,
                num_agents=AGENTS,
                bounds=((-HALF, HALF), (-HALF, HALF)),
                seed=SEED,
            )
            sim.world.bounds = BOUNDS
            sim = (
                sim.with_workers(workers)
                .with_executor(executor, max_workers=2 if executor == "thread" else None)
                .with_load_balancing(False)
            )
            with sim:
                sim.on_tick(lambda event: nudge(sim.world, event.tick))
                sim.run(ticks)
                return sim.states()

        _assert_every_tick(run, _oracle(PREDATORS["local"], TICKS, between=nudge))

    @pytest.mark.parametrize("executor, workers", IN_PROCESS)
    def test_bare_run_tick_loop_reads_runtime_world(self, executor, workers):
        build = PREDATORS["local"]
        oracle = _oracle(build, TICKS)
        world, non_local = build()
        with _runtime(world, executor, workers, non_local) as runtime:
            for expected in oracle:
                runtime.run_tick()
                assert states_equal(_states(runtime.world), expected)


_NAN_LATER_SCRIPT = """
class Critter {
    public state float x : x; #visibility[3];
    public state float y : y; #visibility[3];
    public state float v : v + 1;
    public state float w : (v > 0.5) ? ((w * 1000) - (w * 1000)) : ((lo < 1) ? (w + lo) : w);
    private effect float lo : min;
    public void run() {
        foreach (Critter p : Extent<Critter>) {
            lo <- w + p.x;
        }
    }
}
"""


class TestCounts:
    def test_a_steady_tick_packs_writes_back_and_harvests_nothing(self, monkeypatch):
        world, non_local = PREDATORS["local"]()
        calls: dict[str, int] = {}

        def count(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        with _runtime(world, "serial", 1, non_local) as runtime:
            runtime.run_tick()  # packs once: nothing was resident
            count(soa.AgentTable, "__init__")
            count(soa.AgentTable, "writeback")
            count(worker_module, "pack_positions")
            count(soa, "pack_positions")
            for _ in range(3):
                stats = runtime.run_tick()
                assert stats.rows_materialized_per_worker == [0]
            assert calls == {}
            # The world read is the one materialization.
            states = _states(runtime.world)
            assert calls == {"writeback": 1}
        oracle = _oracle(PREDATORS["local"], 4)
        assert states_equal(states, oracle[-1])

    def test_a_world_read_with_nothing_resident_runs_no_round(self, monkeypatch):
        world, non_local = PREDATORS["local"]()
        with _runtime(world, "serial", 1, non_local, plan_backend="interpreted") as runtime:
            runtime.run_tick()
            rounds = []
            plain = runtime.executor.run_sharded_tasks
            monkeypatch.setattr(
                runtime.executor,
                "run_sharded_tasks",
                lambda tasks: rounds.append(len(tasks)) or plain(tasks),
            )
            runtime.world.agents()
            assert runtime.sync_world() == 0
            assert rounds == []

    @pytest.mark.parametrize("executor", ["serial", "cluster"])
    def test_shipped_rows_and_captured_shards_are_counted(self, executor):
        """The predator-cluster configuration: every shipped or migrated row
        is materialized once, and a checkpoint tick adds its whole shards."""
        build = PREDATORS["non-local"]
        world, non_local = build()
        oracle_world, _ = build()
        engine = SequentialEngine(oracle_world)
        shards = 4
        with _runtime(
            world,
            executor,
            shards,
            non_local,
            checkpointing=True,
            ticks_per_epoch=3,
            max_workers=2 if executor == "cluster" else None,
        ) as runtime:
            partitioning = runtime.master.partitioning
            owner = {
                agent_id: partitioning.partition_of(agent.position())
                for agent_id, agent in ((a.agent_id, a) for a in oracle_world.agents())
            }
            resident = False  # nothing is before the first update
            for tick in range(6):
                agents = sorted(oracle_world.agents(), key=lambda a: repr(a.agent_id))
                points = np.array([agent.position() for agent in agents])
                owners = partitioning.partition_of_batch(points)
                replicates, _, _ = replication_targets_batch(agents, points, owners, partitioning)
                shipped = [0] * shards
                for agent, new_owner, replicating in zip(agents, owners.tolist(), replicates):
                    if replicating or new_owner != owner[agent.agent_id]:
                        shipped[owner[agent.agent_id]] += 1
                owner = {agent.agent_id: o for agent, o in zip(agents, owners.tolist())}
                stats = runtime.run_tick()
                engine.run_tick()
                expected = shipped if resident else [0] * shards
                resident = True
                if tick % 3 == 2:  # the capture materializes every shard whole
                    counts = runtime.owned_counts()
                    expected = [a + b for a, b in zip(expected, counts)]
                    resident = False
                assert stats.rows_materialized_per_worker == expected, f"tick {tick}"
            assert states_equal(_synced_states(runtime), _states(oracle_world))
