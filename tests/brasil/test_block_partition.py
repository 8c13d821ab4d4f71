"""Blocked query phases are a partition of the pair list, never a change.

The σ_V join and the query kernel run one block of whole probes at a time
(:data:`repro.spatial.columnar.BLOCK_CANDIDATES` candidates at most).  The
join lays pairs out probe-major with matches ascending, so every
accumulator row folds its values in the same order under any cut into
whole probes.  These tests cut at budgets {1, 7, 4096, unbounded} — one
probe per block, a few probes per block, the production size and one
block — and require everything the query phase produces to be identical
bit for bit: the accumulator columns, the hand-off columns the update
kernel reads, the effects written onto replica rows, ``work_units``,
``index_probes`` and the final states.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import Simulation
from repro.brace.config import BraceConfig
from repro.brace.worker import _query_loop, _update_loop
from repro.brasil import compile_script
from repro.brasil import kernels
from repro.brasil.kernels import kernel_fallback_reasons, try_compiled_query_phase
from repro.brasil.runner import build_script_world
from repro.core.context import QueryContext, UpdateContext
from repro.core.engine import SequentialEngine
from repro.core.ordering import agent_sort_key
from repro.core.phase import Phase, phase
from repro.core.soa import states_equal
from repro.core.world import World
from repro.spatial import columnar

from tests.brasil.test_plan_compile_differential import (
    _combinator_script,
    _run_script,
    brasil_scripts,
)
from tests.conftest import Boid

#: A budget no tick reaches: the whole pair list is one block.
UNBOUNDED = 2**62
BUDGETS = (1, 7, 4096, UNBOUNDED)
NUM_CRITTERS = 30

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _column_bytes(accumulator) -> tuple[bytes, ...]:
    if accumulator.combinator == "mean":
        columns = (accumulator.sums, accumulator.counts)
    else:
        columns = (accumulator.data,)
    return tuple(column.tobytes() for column in columns) + (accumulator.touch.tobytes(),)


def _one_tick(source: str, seed: int, layout: str, inversion: str, budget: int) -> dict:
    """One compiled query + update phase at ``budget``; everything it produced.

    ``layout`` picks the probes: ``"snapshot"`` (every row probes, in row
    order), ``"subset"`` (every other agent probes; the rest play replicas)
    or ``"foreign"`` (a second class interleaves the extent, and the last
    critter does not probe).  ``inversion="off"`` keeps non-local effect
    targets, which scatter into match rows across blocks.
    """
    compiled = compile_script(source, effect_inversion=inversion)
    rng = np.random.default_rng(seed)
    world = World(seed=seed)
    for index in range(NUM_CRITTERS + (NUM_CRITTERS // 2 if layout == "foreign" else 0)):
        place = {"x": float(rng.uniform(-3, 3)), "y": float(rng.uniform(-3, 3))}
        if layout == "foreign" and index % 3 == 2:
            world.add_agent(Boid(**place))
        else:
            world.add_agent(compiled.make_agent(w=float(rng.uniform(-1, 1)), **place))
    agents = sorted(world.agents(), key=lambda agent: agent_sort_key(agent.agent_id))
    critters = [agent for agent in agents if isinstance(agent, compiled.agent_class)]
    owned = {"snapshot": critters, "subset": critters[::2], "foreign": critters[:-1]}[layout]
    query = QueryContext(agents, tick=0, seed=seed, spatial_backend="vectorized")
    handoffs = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(columnar, "BLOCK_CANDIDATES", budget)
        with phase(Phase.QUERY):
            _query_loop(owned, query, "compiled", keep=handoffs.append)
    produced = {
        "work": (query.work_units, query.index_probes),
        "effects": {agent.agent_id: dict(agent._effects) for agent in agents},
    }
    if handoffs:
        (handoff,) = handoffs
        produced["accumulators"] = {
            name: _column_bytes(accumulator)
            for name, accumulator in handoff.accumulators.items()
        }
        produced["handoff"] = {
            name: accumulator.finalized(handoff.probe_rows).tobytes()
            for name, accumulator in handoff.accumulators.items()
        }
    with phase(Phase.UPDATE):
        _update_loop(owned, UpdateContext(tick=0, seed=seed), "compiled", *handoffs)
    produced["states"] = {agent.agent_id: agent.state_dict() for agent in critters}
    return produced


def _assert_same_tick(got: dict, expected: dict) -> None:
    assert got["work"] == expected["work"]
    assert states_equal(got["effects"], expected["effects"])
    assert got.get("accumulators") == expected.get("accumulators")
    assert got.get("handoff") == expected.get("handoff")
    assert states_equal(got["states"], expected["states"])


def _assert_budget_free(source: str, seed: int, layout: str, inversion: str) -> None:
    whole = _one_tick(source, seed, layout, inversion, UNBOUNDED)
    for budget in BUDGETS[:-1]:
        _assert_same_tick(_one_tick(source, seed, layout, inversion, budget), whole)


def _serial_run(source: str, inversion: str, budget: int, seed: int, ticks: int = 3):
    """Two workers on the serial executor: the probes are never a snapshot."""
    config = BraceConfig(num_workers=2, plan_backend="compiled")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(columnar, "BLOCK_CANDIDATES", budget)
        with Simulation.from_script(
            source,
            config=config,
            effect_inversion=inversion,
            num_agents=NUM_CRITTERS,
            seed=seed,
        ) as session:
            result = session.run(ticks)
    work = [tick.query_work_units_per_worker for tick in result.metrics.ticks]
    return result.final_states, work


def _assert_serial_runs_budget_free(source: str, inversion: str, seed: int) -> None:
    states, work = _serial_run(source, inversion, UNBOUNDED, seed)
    for budget in BUDGETS[:-1]:
        got_states, got_work = _serial_run(source, inversion, budget, seed)
        assert states_equal(got_states, states)
        assert got_work == work


class TestBlockPartition:
    @_SETTINGS
    @given(
        source=brasil_scripts(),
        seed=st.integers(min_value=0, max_value=2**20),
        layout=st.sampled_from(["snapshot", "subset", "foreign"]),
        inversion=st.sampled_from(["auto", "off"]),
    )
    def test_generated_scripts_are_budget_free(self, source, seed, layout, inversion):
        _assert_budget_free(source, seed, layout, inversion)

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        source=brasil_scripts(),
        seed=st.integers(min_value=0, max_value=2**20),
        inversion=st.sampled_from(["auto", "off"]),
    )
    def test_two_worker_serial_runs_are_budget_free(self, source, seed, inversion):
        _assert_serial_runs_budget_free(source, inversion, seed)


class TestCombinatorMatrix:
    """Every scatter combinator, scattering into probe rows and (inversion
    off) into match rows, whose writers span many blocks."""

    @pytest.mark.parametrize("combinator", ["sum", "min", "max", "product", "mean"])
    @pytest.mark.parametrize("target", ["", "p."])
    @pytest.mark.parametrize("inversion", ["auto", "off"])
    def test_each_combinator(self, combinator, target, inversion):
        source = _combinator_script(combinator, target)
        compiled = compile_script(source, effect_inversion=inversion)
        assert kernel_fallback_reasons(compiled.agent_class) == {}
        for layout in ("snapshot", "subset"):
            _assert_budget_free(source, 7, layout, inversion)


#: Two writers of one ``min`` and one ``max`` effect per pair, fed signed
#: zeros: ``min(0.0, -0.0)`` keeps whichever came first, so only an
#: unchanged fold order per row keeps the sign.
_SIGNED_ZERO_SCRIPT = """
class Critter {{
    public state float x : x; #visibility[3];
    public state float y : y; #visibility[3];
    public state float w : (lo == 0) ? ((1 / lo) + (1 / hi)) * 0.125 : w;
    private effect float lo : min;
    private effect float hi : max;
    public void run() {{
        foreach (Critter p : Extent<Critter>) {{
            {target}lo <- p.w * 0;
            {target}lo <- (0 - w) * 0;
            {target}hi <- (w - p.w) * 0;
            {target}hi <- p.w * (0 - 0);
        }}
    }}
}}
"""


class TestSignedZeroWriters:
    @pytest.mark.parametrize("target", ["", "p."])
    @pytest.mark.parametrize("inversion", ["auto", "off"])
    @pytest.mark.parametrize("layout", ["snapshot", "subset", "foreign"])
    def test_two_writers_of_min_and_max(self, target, inversion, layout):
        source = _SIGNED_ZERO_SCRIPT.format(target=target)
        compiled = compile_script(source, effect_inversion=inversion)
        assert kernel_fallback_reasons(compiled.agent_class) == {}
        for seed in (1, 2, 3):
            _assert_budget_free(source, seed, layout, inversion)

    @pytest.mark.parametrize("target", ["", "p."])
    @pytest.mark.parametrize("inversion", ["auto", "off"])
    def test_two_worker_serial_runs(self, target, inversion):
        source = _SIGNED_ZERO_SCRIPT.format(target=target)
        _assert_serial_runs_budget_free(source, inversion, seed=5)


#: A NaN in the probe's own ``w`` reaches the ``min`` effect only through
#: that probe's pairs.
_NAN_MIN_SCRIPT = """
class Critter {
    public state float x : x; #visibility[3];
    public state float y : y; #visibility[3];
    public state float w : (lo < 1) ? w + lo : w;
    private effect float lo : min;
    private effect int cnt : count;
    public void run() {
        foreach (Critter p : Extent<Critter>) {
            cnt <- 1;
            lo <- w + p.x;
        }
    }
}
"""


class TestFallbackInALaterBlock:
    def test_nan_in_the_last_probes_block(self, monkeypatch):
        compiled = compile_script(_NAN_MIN_SCRIPT)
        cls = compiled.agent_class
        reasons = kernel_fallback_reasons(cls)
        assert reasons == {}
        # Every critter within reach of the others; the last one (in
        # canonical order, the last probe) carries the NaN.
        initial = [{"x": 0.25 * index, "y": 0.0, "w": 0.5} for index in range(8)]
        initial[-1]["w"] = float("nan")
        world = build_script_world(compiled, initial_states=initial)
        oracle = build_script_world(compiled, initial_states=initial)

        monkeypatch.setattr(columnar, "BLOCK_CANDIDATES", 1)
        blocks = []
        join = columnar.VectorizedGrid.batch_range_query

        def counted(grid, lows, highs, runs=None, block=None):
            blocks.append(block)
            return join(grid, lows, highs, runs, block)

        monkeypatch.setattr(columnar.VectorizedGrid, "batch_range_query", counted)

        agents = sorted(world.agents(), key=lambda agent: agent_sort_key(agent.agent_id))
        assert agents[-1].w != agents[-1].w  # the NaN probe is the last one
        for agent in agents:
            agent.reset_effects()
        before = {agent.agent_id: dict(agent._effects) for agent in agents}
        query = QueryContext(agents, tick=0, seed=0, spatial_backend="vectorized")
        query.work_units, query.index_probes = 11, 3
        with phase(Phase.QUERY):
            assert not try_compiled_query_phase(agents, query)
        # One block per probe, and the kernel reached the last one.
        assert len(blocks) == len(agents)
        assert blocks[-1] == slice(len(agents) - 1, len(agents))
        # Nothing was mutated: effects and the work accounting.
        assert states_equal(
            {agent.agent_id: dict(agent._effects) for agent in agents}, before
        )
        assert (query.work_units, query.index_probes) == (11, 3)
        # A runtime fallback is per tick, never a recorded reason.
        assert kernel_fallback_reasons(cls) == reasons

        # The interpreted rerun the caller makes equals the naive oracle.
        hits = []
        attempt = kernels.try_compiled_query_phase

        def recorded(*args, **kwargs):
            hits.append(attempt(*args, **kwargs))
            return hits[-1]

        monkeypatch.setattr(kernels, "try_compiled_query_phase", recorded)
        result = _run_script(
            _NAN_MIN_SCRIPT,
            BraceConfig(num_workers=1, plan_backend="compiled"),
            ticks=1,
            initial_states=initial,
        )
        assert hits == [False]
        SequentialEngine(oracle).run(1)
        expected = {agent.agent_id: agent.state_dict() for agent in oracle.agents()}
        assert states_equal(result.final_states, expected)
        assert kernel_fallback_reasons(cls) == reasons
