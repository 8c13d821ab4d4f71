"""The query -> update effect hand-off against the interpreter.

A compiled class keeps its effects in the query kernel's accumulator
columns (:class:`repro.brasil.kernels.EffectHandoff`) until the update
kernel reads them; every other reader gets them materialized onto the
agents first.  The runs here compare compiled against interpreted, tick by
tick, with :func:`~repro.core.soa.states_equal`, on each path a hand-off can
take: read whole by the update kernel (local script), merged into by routed
partials (non-local script, no inversion), materialized (no update kernel,
or a merged value its column cannot hold exactly).

Two properties close the loop: the column ``finalize`` is the per-agent
``finalize`` + :func:`~repro.core.soa.pack_column`, bit for bit; and a map
phase that resets only the agents whose effects can differ from identity
still leaves every owned agent at identity, whatever was written between
ticks.
"""

from __future__ import annotations

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import Simulation
from repro.brace.worker import ShardSettings, Worker
from repro.brasil import compile_script, kernel_fallback_reasons
from repro.brasil import kernels
from repro.core.combinators import get_combinator
from repro.core.soa import UnpackableValueError, cells_equal, pack_column, states_equal
from repro.core.world import World
from repro.ipc.frames import pack_agents, unpack_agents
from repro.simulations.predator.brasil_scripts import (
    PREDATOR_LOCAL_SCRIPT,
    PREDATOR_NON_LOCAL_SCRIPT,
)
from repro.spatial.bbox import BBox
from repro.spatial.partitioning import StripPartitioning

from tests.conftest import SpawningAgent

SEED = 7
AGENTS = 150
TICKS = 6
#: Constant density with the reference predator world (8000 agents on a
#: 170-unit square), and head-room in y: see bench/workloads.py.
HALF = 85.0 * math.sqrt(AGENTS / 8000)
BOUNDS = BBox(((-HALF, HALF), (-HALF - 40.0, HALF + 40.0)))


def _per_tick_states(script, backend, workers, *, executor="serial", inversion="auto"):
    session = Simulation.from_script(
        script,
        effect_inversion=inversion,
        num_agents=AGENTS,
        bounds=((-HALF, HALF), (-HALF, HALF)),
        seed=SEED,
    )
    session.world.bounds = BOUNDS
    session = (
        session.with_workers(workers)
        .with_executor(executor, max_workers=min(workers, 2))
        .with_load_balancing(False)
        .with_plan_backend(backend)
    )
    with session:
        return [event.states for event in session.stream(TICKS, snapshot_states=True)]


def _assert_backends_agree(script, workers, **options):
    compiled = _per_tick_states(script, "compiled", workers, **options)
    interpreted = _per_tick_states(script, "interpreted", workers, **options)
    assert len(compiled) == len(interpreted) == TICKS
    for tick, (ours, theirs) in enumerate(zip(compiled, interpreted)):
        assert states_equal(ours, theirs), f"tick {tick}"


@pytest.fixture
def merges(monkeypatch):
    """Counts routed partials merged into hand-off columns (in process)."""
    counts = {"columns": 0, "objects": 0}
    plain = kernels.EffectHandoff.merge

    def counting(handoff, agent, partials):
        merged = plain(handoff, agent, partials)
        counts["columns" if merged else "objects"] += 1
        return merged

    monkeypatch.setattr(kernels.EffectHandoff, "merge", counting)
    return counts


class TestDifferential:
    @pytest.mark.parametrize("executor, workers", [("serial", 1), ("serial", 3), ("thread", 3)])
    def test_local_script(self, executor, workers):
        _assert_backends_agree(PREDATOR_LOCAL_SCRIPT, workers, executor=executor)

    def test_non_local_script_merges_into_columns(self, merges):
        _assert_backends_agree(PREDATOR_NON_LOCAL_SCRIPT, 3, inversion="off")
        assert merges["columns"] > 0 and merges["objects"] == 0

    def test_non_local_script_on_process_workers(self):
        _assert_backends_agree(
            PREDATOR_NON_LOCAL_SCRIPT, 2, executor="process", inversion="off"
        )

    def test_class_without_update_kernel_materializes(self, merges):
        cls = compile_script(NO_UPDATE_KERNEL_SCRIPT).agent_class
        assert kernel_fallback_reasons(cls) == {
            "update": "update rule of non-float field 'seen'"
        }
        _assert_backends_agree(NO_UPDATE_KERNEL_SCRIPT, 3, inversion="off")
        assert merges["columns"] > 0


#: A compiled query phase, an interpreted update phase (``seen`` is an int).
NO_UPDATE_KERNEL_SCRIPT = """
class Tally {
    public state float x : x + 0.25; #range[-3, 3];
    public state float y : y; #range[-3, 3];
    public state int seen : seen + n;
    public state float heat : heat * 0.5 + warmth;
    private effect int n : count;
    private effect float warmth : sum;
    public void run() {
        foreach (Tally p : Extent<Tally>) {
            p.n <- 1;
            p.warmth <- x * 0.125;
        }
    }
}
"""

#: One effect per combinator family the merge path treats differently.
EDGE_SCRIPT = """
class Cell {
    public state float x : x; #range[-2, 2];
    public state float y : y; #range[-2, 2];
    public state float w : w + total + low + high + n + avg;
    private effect float total : sum;
    private effect float low : min;
    private effect float high : max;
    private effect int n : count;
    private effect float avg : mean;
    public void run() {
        foreach (Cell p : Extent<Cell>) {
            total <- p.w;
            low <- p.w * 1.0;
            high <- p.w * 1.0;
            n <- 1;
            avg <- p.w;
        }
    }
}
"""

EDGE_CELLS = 12
EDGE_BOUNDS = BBox(((0.0, 12.0), (0.0, 12.0)))


def _edge_tick(backend: str, partials: dict) -> tuple[dict, bool]:
    """One worker's tick on the edge script with ``partials`` routed to
    agent 0; returns the final states and whether the hand-off survived
    the merge."""
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
    worker.distribute()
    worker.run_query_phase(0)
    worker.merge_remote_partials(0, partials)
    kept = worker._effect_handoff is not None
    worker.run_update_phase(0)
    return worker.collect_states(), kept


HUGE = 2**53 + 1  # an int no float64 holds


@pytest.mark.parametrize(
    "partials, in_columns",
    [
        ({"total": float("nan"), "avg": (float("nan"), 1)}, True),
        ({"total": -0.0, "low": -0.0, "high": 0.0}, True),
        ({"low": -math.inf, "high": math.inf, "n": 3}, True),
        ({"n": 2**63}, False),  # past int64
        ({"low": -HUGE}, False),  # min keeps the int: no float column holds it
        ({"high": HUGE, "total": 1.0}, False),
        ({"avg": (0.5, 2**63)}, False),  # a mean count past int64
    ],
)
def test_merged_partials_at_the_column_edges(partials, in_columns):
    compiled, kept = _edge_tick("compiled", partials)
    interpreted, _ = _edge_tick("interpreted", partials)
    assert kept is in_columns
    assert states_equal(compiled, interpreted)


def test_query_context_is_collectable_while_the_handoff_is_held():
    compiled = compile_script(EDGE_SCRIPT)
    partitioning = StripPartitioning.uniform(EDGE_BOUNDS, 0, 1)
    worker = Worker(0, partitioning.partition(0), partitioning=partitioning)
    for index in range(EDGE_CELLS):
        worker.add_owned(compiled.make_agent(agent_id=index, x=1.0 + index, y=1.0))
    worker.distribute()
    context = weakref.ref(worker.run_query_phase(0))
    gc.collect()
    assert worker._effect_handoff is not None
    assert context() is None


# ----------------------------------------------------------------------
# The column finalize
# ----------------------------------------------------------------------
def _bits(column: np.ndarray) -> bytes:
    return np.asarray(column, dtype=np.float64).tobytes()


_floats = st.floats(allow_nan=True, allow_infinity=True, width=64)
_int64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_RAW_VALUES = {
    "sum": _floats,
    "min": _floats,
    "max": _floats,
    "product": _floats,
    "count": st.one_of(st.integers(-(2**53), 2**53), _int64),
    "any": st.booleans(),
    "all": st.booleans(),
    "mean": st.tuples(_floats, st.one_of(st.just(0), st.integers(0, 2**20), _int64)),
}


@st.composite
def _accumulators(draw):
    name = draw(st.sampled_from(sorted(kernels._SCATTERABLE)))
    values = draw(st.lists(_RAW_VALUES[name], min_size=1, max_size=12))
    rows = draw(st.none() | st.lists(st.integers(0, len(values) - 1), max_size=12))
    return name, values, rows


class TestFinalizeProperty:
    def test_every_scatterable_combinator_is_covered(self):
        assert set(_RAW_VALUES) == kernels._SCATTERABLE

    @settings(max_examples=300, deadline=None)
    @given(_accumulators())
    def test_column_finalize_is_finalize_then_pack(self, drawn):
        name, values, rows = drawn
        accumulator = kernels._Accumulator("f", name, values, len(values))
        combinator = get_combinator(name)
        chosen = values if rows is None else [values[row] for row in rows]
        index = None if rows is None else np.array(rows, dtype=np.intp)
        try:
            expected = pack_column([combinator.finalize(value) for value in chosen])
        except UnpackableValueError:
            with pytest.raises(UnpackableValueError):
                accumulator.finalized(index)
            return
        assert _bits(accumulator.finalized(index)) == _bits(expected)

    @pytest.mark.parametrize("name", sorted(kernels._SCATTERABLE))
    def test_identity_fill_holds_the_identity(self, name):
        accumulator = kernels._Accumulator("f", name, None, 3)
        identity = get_combinator(name).identity()
        assert all(cells_equal(accumulator.value(row), identity) for row in range(3))
        assert accumulator.holds(identity)
        expected = pack_column([get_combinator(name).finalize(identity)] * 3)
        assert _bits(accumulator.finalized(None)) == _bits(expected)

    @settings(max_examples=200, deadline=None)
    @given(_accumulators())
    def test_a_held_value_reads_back_exactly(self, drawn):
        name, values, _ = drawn
        accumulator = kernels._Accumulator("f", name, None, len(values))
        for row, value in enumerate(values):
            if accumulator.holds(value):
                accumulator.put(row, value)
                assert cells_equal(accumulator.value(row), value)
                assert accumulator.touch[row]


# ----------------------------------------------------------------------
# The map phase resets only what can differ from identity
# ----------------------------------------------------------------------
def _identity_effects(agent) -> bool:
    return not agent._effects_touched and all(
        cells_equal(agent._effects[name], field.combinator.identity())
        for name, field in agent._effect_fields.items()
    )


def _session(source: str, workers: int) -> Simulation:
    if source == "script":
        session = Simulation.from_script(
            PREDATOR_LOCAL_SCRIPT, num_agents=60, bounds=((-6.0, 6.0), (-6.0, 6.0)), seed=SEED
        )
        session.world.bounds = BBox(((-6.0, 6.0), (-40.0, 40.0)))
    else:
        rng = np.random.default_rng(SEED)
        world = World(bounds=BBox(((0.0, 30.0), (0.0, 30.0))), seed=SEED)
        for _ in range(60):
            x, y = (float(value) for value in rng.uniform(0.0, 30.0, 2))
            world.add_agent(SpawningAgent(x=x, y=y))
        session = Simulation.from_agents(world)
    return session.with_workers(workers).with_executor("serial").with_load_balancing(False)


#: Between-tick effect writes (a raw assignment, set_effect_partials) and a
#: pause/resume (the pause point's images rebuild the world and re-seed
#: every shard).
_OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(["raw", "partials", "pause"]),
        st.integers(0, 10**6),
        st.floats(-5.0, 5.0, allow_nan=False),
    ),
    max_size=8,
)


def _apply(session: Simulation, operation) -> None:
    kind, pick, value = operation
    agents = list(session.world.agents())
    agent = agents[pick % len(agents)]
    field = sorted(agent._effect_fields)[pick % len(agent._effect_fields)]
    identity = agent._effect_fields[field].combinator.identity()
    if isinstance(identity, bool):
        nudged = value > 0
    elif isinstance(identity, tuple):
        nudged = (value, 1)
    else:
        nudged = type(identity)(value)
    if kind == "raw":
        setattr(agent, field, nudged)
    elif kind == "partials":
        agent.set_effect_partials({field: nudged})
    elif session.started:
        session.pause()
        session.resume()


class TestMapPhaseReset:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    @given(
        source=st.sampled_from(["script", "agents"]),
        workers=st.sampled_from([1, 3]),
        schedule=st.lists(_OPERATIONS, min_size=4, max_size=4),
    )
    def test_between_tick_writes_never_reach_a_query_phase(
        self, monkeypatch, source, workers, schedule
    ):
        plain = Worker.distribute

        def checked(worker, *args, **kwargs):
            result = plain(worker, *args, **kwargs)
            assert all(map(_identity_effects, worker.owned.values()))
            return result

        monkeypatch.setattr(Worker, "distribute", checked)
        with _session(source, workers) as reference:
            expected = reference.run(len(schedule)).final_states
        with _session(source, workers) as session:
            for operations in schedule:
                for operation in operations:
                    _apply(session, operation)
                session.run(1)
            assert states_equal(session.result().final_states, expected)

    def test_arrivals_over_a_wire_start_at_identity(self):
        partitioning = StripPartitioning.uniform(BBox(((0.0, 30.0), (0.0, 30.0))), 0, 1)
        worker = Worker(0, partitioning.partition(0), partitioning=partitioning)
        worker.add_owned(SpawningAgent(agent_id=0, x=1.0, y=1.0))
        sender = SpawningAgent(agent_id=1, x=2.0, y=2.0)
        sender.crowd = 5  # a raw write between ticks
        worker.distribute()
        # Decoding (as a node does for a migrant, a spawn or a repartition
        # arrival) starts every accumulator at identity, untouched.
        (arrival,) = unpack_agents(pack_agents([sender]))
        assert _identity_effects(arrival)
        worker.add_owned(arrival)
        worker.distribute()
        assert all(map(_identity_effects, worker.owned.values()))
