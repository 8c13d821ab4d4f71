"""Differential fuzzing of the BRASIL plan compiler.

The plan compiler (:mod:`repro.brasil.kernels`) promises that every script
it compiles runs **bit-identically** to the reference interpreter — not
"close enough", the exact same float bits after every tick.  These tests
hold it to that promise two ways:

* a hypothesis fuzzer generates small random BRASIL scripts — visibility
  region shapes x aggregation combinators x local/non-local effect targets
  x arithmetic/builtin/conditional value expressions — and runs each one
  for several ticks under ``plan_backend="interpreted"`` and
  ``plan_backend="compiled"``, asserting the final states *and* the work
  accounting agree exactly;
* an explicit matrix covers every scatter combinator with both local and
  inverted non-local targets, asserting the query kernel actually compiled
  (so the differential is not vacuously comparing interpreter to
  interpreter).

Scripts outside the provable subset are a feature, not a failure: the
compiled run must silently fall back to the interpreter and still match.
The generator intentionally produces some of those (unbounded visibility,
``rand()``) alongside fully compilable scripts.
"""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import numpy as np

from repro.brace.config import BraceConfig
from repro.brace.worker import _query_loop, _update_loop
from repro.brasil import compile_script, run_script
from repro.brasil.ast_nodes import BinaryOp, Call
from repro.brasil.kernels import (
    QueryKernel,
    UpdateKernel,
    _VectorFrame,
    kernel_fallback_reasons,
    kernels_for_class,
)
from repro.core.context import QueryContext, UpdateContext
from repro.core.phase import Phase, phase
from repro.core.soa import AgentTable, states_equal
from repro.core.world import World
from repro.simulations.predator.brasil_scripts import PREDATOR_LOCAL_SCRIPT
from repro.spatial.columnar import PointSet

from tests.conftest import Boid

TICKS = 3
NUM_AGENTS = 10


# ---------------------------------------------------------------------------
# Script generation
# ---------------------------------------------------------------------------

#: Atoms readable inside ``run()``: own state and the loop variable's state.
_SELF_ATOMS = ("x", "y", "w")
_OTHER_ATOMS = ("p.x", "p.y", "p.w")
#: Small literals; every one is exactly representable in float64.
_LITERALS = ("0.5", "1", "2", "1.5", "3", "0.25")
_COMPARE_OPS = ("<", ">", "<=", ">=", "==")


@st.composite
def _expr(draw, atoms: tuple[str, ...], depth: int) -> str:
    """A random BRASIL value expression over ``atoms``."""
    kinds = ["atom", "literal"]
    if depth > 0:
        kinds += ["binop", "binop", "call", "cond"]
    kind = draw(st.sampled_from(kinds))
    if kind == "atom":
        return draw(st.sampled_from(atoms))
    if kind == "literal":
        return draw(st.sampled_from(_LITERALS))
    if kind == "binop":
        op = draw(st.sampled_from(["+", "-", "*", "/"]))
        left = draw(_expr(atoms, depth - 1))
        right = draw(_expr(atoms, depth - 1))
        return f"({left} {op} {right})"
    if kind == "call":
        fn = draw(st.sampled_from(["abs", "sqrt", "min", "max"]))
        if fn in ("min", "max"):
            a = draw(_expr(atoms, depth - 1))
            b = draw(_expr(atoms, depth - 1))
            return f"{fn}({a}, {b})"
        # Raw sqrt of a possibly-negative argument exercises the NIL path
        # (math.sqrt raises, the kernel masks the lane) on both backends.
        return f"{fn}({draw(_expr(atoms, depth - 1))})"
    guard = draw(_comparison(atoms))
    then = draw(_expr(atoms, depth - 1))
    other = draw(_expr(atoms, depth - 1))
    return f"({guard} ? {then} : {other})"


@st.composite
def _comparison(draw, atoms: tuple[str, ...]) -> str:
    op = draw(st.sampled_from(_COMPARE_OPS))
    left = draw(_expr(atoms, 0))
    right = draw(_expr(atoms, 0))
    return f"({left} {op} {right})"


def _bounded_drift(field: str, expression: str, step: str = "0.5") -> str:
    """An update rule moving ``field`` by at most ``step`` per tick.

    NaN (``e != e``) and NIL expressions keep the old position, so the
    spatial index never sees a non-finite coordinate no matter what the
    fuzzer generated for ``expression``.
    """
    e = f"({expression})"
    return (
        f"({e} == {e}) ? (({e} < (0 - {step})) ? ({field} - {step}) : "
        f"(({e} > {step}) ? ({field} + {step}) : ({field} + {e}))) : {field}"
    )


#: Shapes of a sub-expression the generator plants in several places of one
#: ``foreach`` body, so the kernel's shared-sub-expression memo is actually
#: hit; the last three can produce NIL (negative ``sqrt``, division by zero,
#: modulo zero) *inside* the shared value.
_SHARED_SHAPES = (
    "({a} - {b})",
    "(({a} - {b}) * ({a} - {b}))",
    "sqrt({a} - {b})",
    "(1 / ({a} - {b}))",
    "({a} % ({b} - 0.5))",
)


@st.composite
def brasil_scripts(draw) -> str:
    """A random small BRASIL class exercising the plan compiler's subset."""
    geometry = draw(
        st.sampled_from(
            [
                "#visibility[2];",  # uniform radius -> grid + vectorized join
                "#visibility[3]; #reachability[1];",  # reachability clamp
                "#range[-2, 2];",  # range implies visibility + reachability
            ]
        )
    )
    float_comb = draw(st.sampled_from(["sum", "min", "max", "product", "mean"]))
    int_comb = draw(st.sampled_from(["sum", "count", "min", "max"]))
    use_flag = draw(st.booleans())
    flag_comb = draw(st.sampled_from(["any", "all"]))
    # Non-local targets go through effect inversion before kernel building.
    target = draw(st.sampled_from(["", "p."]))
    use_local = draw(st.booleans())
    # "const": a literal-only condition — no lane decides it.
    guard_kind = draw(st.sampled_from([None, "pair", "pair", "const"]))
    use_rand = draw(st.sampled_from([False, False, False, True]))
    use_shared = draw(st.booleans())
    use_probe_local = draw(st.booleans())
    wrap = draw(st.sampled_from([None, None, "if", "if-else"]))
    use_typed_state = draw(st.sampled_from([False, False, True]))

    pair_atoms = _SELF_ATOMS + _OTHER_ATOMS
    value_atoms = pair_atoms + (("d",) if use_local else ())
    if use_probe_local:
        value_atoms += ("t",)
    if use_shared:
        shape = draw(st.sampled_from(_SHARED_SHAPES))
        shared = shape.format(
            a=draw(st.sampled_from(_OTHER_ATOMS)), b=draw(st.sampled_from(_SELF_ATOMS))
        )
        # Twice in the atom pool on top of the two planted uses below.
        value_atoms += (shared, shared)
        acc_value = f"({shared} + {draw(_expr(value_atoms, 2))})"
    else:
        acc_value = draw(_expr(value_atoms, 2))
    flag_value = draw(_comparison(value_atoms if draw(st.booleans()) else _LITERALS))

    body: list[str] = []
    if use_local:
        body.append(f"const float d = {draw(_expr(pair_atoms, 1))};")
    assigns = [f"{target}acc <- {acc_value};", f"{target}cnt <- 1;"]
    if use_flag:
        assigns.append(f"{target}flag <- {flag_value};")
    if use_rand:
        # rand() is outside the provable subset: the compiled run must fall
        # back to the interpreter for the query phase and still match.
        assigns.append(f"{target}acc <- rand();")
    if guard_kind is None:
        body.extend(assigns)
    else:
        if guard_kind == "const":
            guard = draw(_comparison(_LITERALS))
        elif use_shared:
            guard = f"({shared} > {draw(st.sampled_from(_LITERALS))})"
        else:
            guard = draw(_comparison(pair_atoms))
        body.append("if " + guard + " { " + " ".join(assigns) + " }")
    if use_flag and use_local and draw(st.booleans()):
        # Re-declaring ``d`` between two uses of one expression that reads
        # it (``flag`` folds with any/all, so several writers still compile).
        body.append(f"{target}flag <- ((d * 2) > 1);")
        body.append(f"const float d = {draw(_expr(pair_atoms + ('d',), 1))};")
        body.append(f"{target}flag <- ((d * 2) > 1);")

    foreach = (
        "foreach (Critter p : Extent<Critter>) {\n"
        + "\n".join("    " + line for line in body)
        + "\n}"
    )
    run_body: list[str] = []
    if use_probe_local:
        # The same compound expression on both sides of a reassignment of
        # the local it reads: a memoised ``(t * w)`` must not survive it.
        run_body.append(f"float t = {draw(_expr(_SELF_ATOMS, 1))};")
        run_body.append("pacc <- (t * w);")
        reassign = f"t = {draw(_expr(_SELF_ATOMS + ('t',), 1))};"
        if draw(st.booleans()):
            reassign = "if " + draw(_comparison(_SELF_ATOMS)) + " { " + reassign + " }"
        run_body.append(reassign)
        run_body.append("pacc <- (t * w);")
    if wrap is None:
        run_body.append(foreach)
    else:
        wrapped = "if " + draw(_comparison(_SELF_ATOMS)) + " {\n" + foreach + "\n}"
        if wrap == "if-else":
            wrapped += " else { pacc <- 0.25; }"
        run_body.append(wrapped)

    # Update rules: x/y drift by a bounded, NaN-proof step; w absorbs an
    # arbitrary expression over own state and (finalized) effects.
    update_atoms = ("x", "y", "w", "acc")
    x_rule = _bounded_drift("x", draw(_expr(("x", "y", "w"), 1)))
    y_rule = _bounded_drift("y", draw(_expr(("x", "y", "w"), 1)))
    w_rule = draw(
        st.sampled_from(
            [
                f"(cnt > 0) ? (w + ({draw(_expr(update_atoms, 1))}) / cnt) : w",
                f"w + ({draw(_expr(('x', 'y', 'w'), 1))}) * 0.125",
                draw(_expr(update_atoms, 2)),
            ]
        )
    )

    flag_decl = f"    private effect bool flag : {flag_comb};\n" if use_flag else ""
    v_rule = "v * 0.5 + pacc * 0.125"
    if use_flag:
        v_rule = f"flag ? ({v_rule}) : (v * 0.5 - 1)"
    # int / bool state with rules: columns are float64, so the update kernel
    # must refuse the class (it used to store 2.0 for ``steps + 1``) and the
    # run must still match.  ``cnt`` comes back from the query phase with the
    # type the interpreter gives it, whichever backend ran that phase.
    typed_decl = (
        "    public state int steps : steps + 1;\n"
        "    public state int n : n * 3 + cnt;\n"
        "    public state bool hot : !hot;\n"
        if use_typed_state
        else ""
    )
    return (
        "class Critter {\n"
        f"    public state float x : ({x_rule}); {geometry}\n"
        f"    public state float y : ({y_rule}); {geometry}\n"
        f"    public state float w : {w_rule};\n"
        f"    public state float v : {v_rule};\n"
        f"{typed_decl}"
        f"    private effect float acc : {float_comb};\n"
        "    private effect float pacc : sum;\n"
        f"    private effect int cnt : {int_comb};\n"
        f"{flag_decl}"
        "    public void run() {\n"
        + "\n".join("        " + line for line in "\n".join(run_body).split("\n"))
        + "\n    }\n}\n"
    )


# ---------------------------------------------------------------------------
# Differential harness
# ---------------------------------------------------------------------------


def _run(source: str, plan_backend: str, *, ticks: int = TICKS, seed: int = 3):
    config = BraceConfig(num_workers=2, plan_backend=plan_backend)
    return run_script(source, config, num_agents=NUM_AGENTS, ticks=ticks, seed=seed)


def _assert_differential(source: str, *, ticks: int = TICKS, seed: int = 3) -> None:
    interpreted = _run(source, "interpreted", ticks=ticks, seed=seed)
    compiled = _run(source, "compiled", ticks=ticks, seed=seed)
    assert states_equal(compiled.final_states(), interpreted.final_states())
    # The kernels charge the same work units and index probes the
    # interpreter would have, so the deterministic cost model (virtual and
    # compute seconds derive from work units) must not notice the backend.
    interp_work = [
        (t.virtual_seconds, t.compute_seconds, t.num_agents, t.num_passes)
        for t in interpreted.metrics.ticks
    ]
    compiled_work = [
        (t.virtual_seconds, t.compute_seconds, t.num_agents, t.num_passes)
        for t in compiled.metrics.ticks
    ]
    assert compiled_work == interp_work


def _assert_one_proof(source: str) -> None:
    """The compile-time report is the runtime's own per-class proof."""
    compiled = compile_script(source)
    query_kernel, update_kernel = kernels_for_class(compiled.agent_class)
    assert compiled.plan_selection.query_compiled == (query_kernel is not None)
    assert compiled.plan_selection.update_compiled == (update_kernel is not None)


class TestFuzzedScripts:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(source=brasil_scripts(), seed=st.integers(min_value=0, max_value=2**20))
    def test_compiled_matches_interpreted(self, source: str, seed: int):
        _assert_one_proof(source)
        _assert_differential(source, seed=seed)

    @pytest.mark.slow
    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(source=brasil_scripts(), seed=st.integers(min_value=0, max_value=2**20))
    def test_compiled_matches_interpreted_deep(self, source: str, seed: int):
        _assert_one_proof(source)
        _assert_differential(source, ticks=5, seed=seed)


# ---------------------------------------------------------------------------
# Explicit combinator matrix (non-vacuous: kernels must actually compile)
# ---------------------------------------------------------------------------


def _combinator_script(combinator: str, target: str) -> str:
    value_by_comb = {
        "sum": "1 / (x - p.x)",
        "min": "abs(x - p.x) + abs(y - p.y)",
        "max": "(p.x - x) * (p.x - x)",
        "product": "(abs(x - p.x) < 1) ? 0.5 : 1",
        "mean": "p.w - w",
    }
    return (
        "class Critter {\n"
        "    public state float x : (x + min(max(w, 0 - 0.5), 0.5)); #visibility[2];\n"
        "    public state float y : (y - min(max(w, 0 - 0.5), 0.5)); #visibility[2];\n"
        "    public state float w : (cnt > 0) ? (w + acc / cnt) * 0.5 : w;\n"
        f"    private effect float acc : {combinator};\n"
        "    private effect int cnt : count;\n"
        "    public void run() {\n"
        "        foreach (Critter p : Extent<Critter>) {\n"
        f"            {target}acc <- {value_by_comb[combinator]};\n"
        f"            {target}cnt <- 1;\n"
        "        }\n    }\n}\n"
    )


class TestCombinatorMatrix:
    @pytest.mark.parametrize("combinator", ["sum", "min", "max", "product", "mean"])
    @pytest.mark.parametrize("target", ["", "p."])
    def test_each_combinator_local_and_inverted(self, combinator: str, target: str):
        source = _combinator_script(combinator, target)
        selection = compile_script(source).plan_selection
        # The matrix exists to prove the *kernels* agree with the
        # interpreter — every cell must actually compile both phases.
        assert selection is not None
        assert selection.query_compiled and selection.update_compiled
        _assert_differential(source, ticks=4)

    @pytest.mark.parametrize("combinator", ["any", "all"])
    def test_boolean_combinators(self, combinator: str):
        source = (
            "class Critter {\n"
            "    public state float x : (x + min(max(w, 0 - 0.5), 0.5)); #visibility[2];\n"
            "    public state float y : (y - min(max(w, 0 - 0.5), 0.5)); #visibility[2];\n"
            "    public state float w : near ? (0 - w) * 0.5 : w + 0.125;\n"
            f"    private effect bool near : {combinator};\n"
            "    public void run() {\n"
            "        foreach (Critter p : Extent<Critter>) {\n"
            "            near <- (abs(x - p.x) < 1);\n"
            "        }\n    }\n}\n"
        )
        selection = compile_script(source).plan_selection
        assert selection is not None and selection.query_compiled
        _assert_differential(source, ticks=4)

    @pytest.mark.parametrize("combinator", ["min", "max"])
    @pytest.mark.parametrize("value", ["3", "p.k", "p.w"])
    def test_int_effect_min_max_read_by_int_state(self, combinator: str, value: str):
        # The interpreter keeps the winner's type (``max(-inf, 3)`` is the
        # int 3); a float64 accumulator cannot, so int-valued min/max
        # assignments stay interpreted while float-valued ones compile.
        source = (
            "class Critter {\n"
            "    public state float x : (x + min(max(w, 0 - 0.5), 0.5)); #visibility[2];\n"
            "    public state float y : (y - min(max(w, 0 - 0.5), 0.5)); #visibility[2];\n"
            "    public state float w : w * 0.5 + 0.25;\n"
            "    public state int k : crowd;\n"
            f"    private effect int crowd : {combinator};\n"
            "    public void run() {\n"
            "        foreach (Critter p : Extent<Critter>) {\n"
            f"            crowd <- {value};\n"
            "        }\n    }\n}\n"
        )
        reasons = kernel_fallback_reasons(compile_script(source).agent_class)
        assert reasons.pop("update") == "update rule of non-float field 'k'"
        if value == "p.w":
            assert reasons == {}
        else:
            assert reasons == {
                "query": f"{combinator} effect 'crowd' may keep a non-float value"
            }
        _assert_differential(source, ticks=3)

    def test_int_cells_in_float_fields_fall_back_at_run_time(self):
        # The min/max proof takes ``float`` fields to hold floats; ints
        # placed there by the caller hand the phase to the interpreter.
        source = (
            "class Critter {\n"
            "    public state float x : x + 0.5; #visibility[2];\n"
            "    public state float y : y; #visibility[2];\n"
            "    public state int k : gap;\n"
            "    private effect float gap : min;\n"
            "    public void run() {\n"
            "        foreach (Critter p : Extent<Critter>) {\n"
            "            if (p.x > x) { gap <- p.x - x; }\n"
            "        }\n    }\n}\n"
        )
        reasons = kernel_fallback_reasons(compile_script(source).agent_class)
        assert "query" not in reasons
        initial = [{"x": index, "y": 0} for index in range(NUM_AGENTS)]
        runs = {
            backend: run_script(
                source,
                BraceConfig(num_workers=2, plan_backend=backend),
                ticks=1,  # the rule stores floats in x from the first update on
                initial_states=initial,
            )
            for backend in ("interpreted", "compiled")
        }
        assert states_equal(
            runs["compiled"].final_states(), runs["interpreted"].final_states()
        )


class TestExactOracle:
    def test_nan_states_are_bit_identical_across_backends(self):
        # min over an empty neighbourhood finalizes to inf; the second tick
        # computes inf - inf.  ``dict ==`` can never accept that run.
        source = (
            "class Critter {\n"
            "    public state float x : x; #visibility[0.001];\n"
            "    public state float y : y; #visibility[0.001];\n"
            "    public state float w : acc - w;\n"
            "    private effect float acc : min;\n"
            "    public void run() {\n"
            "        foreach (Critter p : Extent<Critter>) {\n"
            "            if (p.x != x) { acc <- p.w; }\n"
            "        }\n    }\n}\n"
        )
        compiled = _run(source, "compiled").final_states()
        interpreted = _run(source, "interpreted").final_states()
        assert any(math.isnan(state["w"]) for state in compiled.values())
        assert compiled != interpreted and states_equal(compiled, interpreted)

    def test_int_rule_on_float_field_stores_a_float(self):
        source = _combinator_script("sum", "").replace(
            "float w : (cnt > 0) ? (w + acc / cnt) * 0.5 : w;", "float w : cnt;"
        )
        for backend in ("interpreted", "compiled"):
            states = _run(source, backend).final_states()
            assert {type(state["w"]) for state in states.values()} == {float}
        _assert_differential(source)


class TestFallbackScripts:
    def test_rand_in_query_falls_back_and_matches(self):
        source = (
            "class Critter {\n"
            "    public state float x : (x + min(max(w, 0 - 0.5), 0.5)); #visibility[2];\n"
            "    public state float y : (y - min(max(w, 0 - 0.5), 0.5)); #visibility[2];\n"
            "    public state float w : (cnt > 0) ? acc / cnt : w;\n"
            "    private effect float acc : sum;\n"
            "    private effect int cnt : count;\n"
            "    public void run() {\n"
            "        foreach (Critter p : Extent<Critter>) {\n"
            "            acc <- rand();\n"
            "            cnt <- 1;\n"
            "        }\n    }\n}\n"
        )
        compiled = compile_script(source)
        assert not compiled.plan_selection.query_compiled
        # The update rules compiled; the query phase says why it did not.
        assert kernel_fallback_reasons(compiled.agent_class) == {
            "query": "rand() in the query phase"
        }
        _assert_differential(source, ticks=4)

    def test_nested_foreach_falls_back_and_matches(self):
        source = (
            "class Critter {\n"
            "    public state float x : (x + min(max(w, 0 - 0.5), 0.5)); #visibility[2];\n"
            "    public state float y : (y - min(max(w, 0 - 0.5), 0.5)); #visibility[2];\n"
            "    public state float w : w + acc * 0.125;\n"
            "    private effect float acc : sum;\n"
            "    public void run() {\n"
            "        foreach (Critter p : Extent<Critter>) {\n"
            "            foreach (Critter q : Extent<Critter>) {\n"
            "                acc <- (p.x > q.x) ? 0.25 : (0 - 0.25);\n"
            "            }\n"
            "        }\n    }\n}\n"
        )
        compiled = compile_script(source)
        assert not compiled.plan_selection.query_compiled
        assert kernel_fallback_reasons(compiled.agent_class) == {"query": "nested foreach"}
        _assert_differential(source, ticks=4)

    def test_compiled_and_hand_written_classes_report_too(self):
        compiled = compile_script(_combinator_script("sum", "p."))
        assert kernel_fallback_reasons(compiled.agent_class) == {}
        assert kernel_fallback_reasons(Boid) == {
            "query": "not a BRASIL-compiled class",
            "update": "not a BRASIL-compiled class",
        }


class TestColumnarQueryPhase:
    """Exact call counts (cannot flake): a compiled vectorized tick asks the
    context for pair arrays once, never for per-agent object lists."""

    def test_compiled_tick_makes_no_per_agent_or_per_pair_calls(self, monkeypatch):
        agents, ticks = 80, 2
        calls: dict[str, int] = {}

        def count(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        count(QueryContext, "visible")
        count(QueryContext, "visible_pairs")
        count(PointSet, "take")
        count(AgentTable, "row_of")
        count(QueryKernel, "run")
        config = BraceConfig(num_workers=1, plan_backend="compiled", spatial_backend="vectorized")
        result = run_script(
            _combinator_script("sum", "p."), config, num_agents=agents, ticks=ticks, seed=3
        )
        assert len(result.final_states()) == agents
        # The kernels ran every tick and resolved their pairs in one call...
        assert calls["run"] == ticks
        assert calls["visible_pairs"] == ticks
        # ...with no object-at-a-time bridge left around them.
        assert "visible" not in calls
        assert "take" not in calls
        # One class, every row probing in row order: one anchoring lookup
        # and an identity pass, not a lookup per agent.
        assert calls["row_of"] == ticks


class TestTwoClassExtent:
    """The kernel's non-shortcut path, as a worker with replicas sees it:
    the extent interleaves a foreign class (canonical rows are not table
    rows) and one agent of the compiled class does not probe (probe lanes
    are not rows either)."""

    @staticmethod
    def _one_tick(source: str, seed: int, plan_backend: str):
        compiled = compile_script(source)
        rng = np.random.default_rng(seed)
        world = World(seed=seed)
        for index in range(NUM_AGENTS + NUM_AGENTS // 2):
            place = {"x": float(rng.uniform(-4, 4)), "y": float(rng.uniform(-4, 4))}
            if index % 3 == 2:
                world.add_agent(Boid(**place))
            else:
                world.add_agent(compiled.make_agent(w=float(rng.uniform(0, 1)), **place))
        agents = list(world.agents())
        critters = [agent for agent in agents if isinstance(agent, compiled.agent_class)]
        owned = critters[:-1]
        query = QueryContext(agents, tick=0, seed=seed, spatial_backend="vectorized")
        with phase(Phase.QUERY):
            _query_loop(owned, query, plan_backend)
        with phase(Phase.UPDATE):
            _update_loop(owned, UpdateContext(tick=0, seed=seed), plan_backend)
        states = {agent.agent_id: agent.state_dict() for agent in critters}
        return states, query.work_units, query.index_probes

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(source=brasil_scripts(), seed=st.integers(min_value=0, max_value=2**20))
    def test_compiled_phases_match_interpreted_among_foreign_agents(self, source, seed):
        interpreted_states, *interpreted_work = self._one_tick(source, seed, "interpreted")
        compiled_states, *compiled_work = self._one_tick(source, seed, "compiled")
        assert states_equal(compiled_states, interpreted_states)
        assert compiled_work == interpreted_work


_SHARING_SCRIPT = """
class Critter {{
    public state float x : x; #visibility[3];
    public state float y : y; #visibility[3];
    public state float w : top + side;
    private effect float top : max;
    private effect float side : sum;
    public void run() {{
        {probe_level}
        foreach (Critter p : Extent<Critter>) {{
            {pair_level}
        }}
    }}
}}
"""


class TestSharedSubexpressions:
    """A repeated compound expression is computed once — but never served
    across a point where one of its inputs was rebound."""

    def _states(self, probe_level: str, pair_level: str):
        source = _SHARING_SCRIPT.format(probe_level=probe_level, pair_level=pair_level)
        assert kernel_fallback_reasons(compile_script(source).agent_class) == {}
        runs = [
            run_script(
                source,
                BraceConfig(num_workers=1, plan_backend=backend),
                num_agents=30,
                ticks=2,
                seed=4,
                bounds=((0.0, 6.0), (0.0, 6.0)),
            ).final_states()
            for backend in ("interpreted", "compiled")
        ]
        assert states_equal(runs[1], runs[0])
        return runs[1]

    def test_redeclared_loop_local_is_not_served_from_the_memo(self):
        states = self._states(
            "",
            "const float d = abs(p.x - x); top <- (d * 2);"
            " const float d = d + 100; top <- (d * 2);",
        )
        # Every agent has a neighbour, so the second writer's (d + 100) * 2 won.
        assert all(state["w"] >= 200.0 for state in states.values())

    def test_reassigned_probe_local_is_not_served_from_the_memo(self):
        states = self._states(
            "float t = abs(x); side <- (t * 2); t = t + 100; side <- (t * 2);",
            "top <- (p.x - x) * (p.x - x);",
        )
        assert all(state["w"] >= 200.0 for state in states.values())

    def test_masked_reassignment_between_two_uses(self):
        self._states(
            "float t = x; side <- (t * 2); if (x > 3) { t = t + 100; } side <- (t * 2);",
            "top <- (p.x - x) * (p.x - x);",
        )

    def test_shared_value_with_nil_lanes(self):
        # sqrt of a negative difference is NIL on about half the pairs; the
        # shared result carries its validity to both uses.
        self._states(
            "",
            "side <- sqrt(p.x - x) + 1; if (sqrt(p.x - x) > 0.5) { top <- sqrt(p.x - x); }",
        )


class TestEvaluatorCallCounts:
    """Exact call counts (cannot flake) on the reference workload's script:
    every distinct sub-expression of the ``foreach`` body is computed once
    per tick, and each state column is gathered into pair space once."""

    def test_predator_body_has_no_repeated_work(self, monkeypatch):
        agents, ticks = 120, 2
        evaluated: dict[str, int] = {}
        gathered: dict[tuple, int] = {}
        plain_eval, plain_column = _VectorFrame._eval, _VectorFrame._state_column

        def counting_eval(frame, expr, space):
            if space == "pair" and isinstance(expr, (BinaryOp, Call)):
                evaluated[repr(expr)] = evaluated.get(repr(expr), 0) + 1
            return plain_eval(frame, expr, space)

        def counting_column(frame, name, space, of_match):
            if space == "pair":
                gathered[name, of_match] = gathered.get((name, of_match), 0) + 1
            return plain_column(frame, name, space, of_match)

        monkeypatch.setattr(_VectorFrame, "_eval", counting_eval)
        monkeypatch.setattr(_VectorFrame, "_state_column", counting_column)
        row_of_calls = []
        plain_row_of = AgentTable.row_of

        def counting_row_of(table, agent):
            row_of_calls.append(agent)
            return plain_row_of(table, agent)

        monkeypatch.setattr(AgentTable, "row_of", counting_row_of)
        config = BraceConfig(num_workers=1, plan_backend="compiled", spatial_backend="vectorized")
        compiled = compile_script(PREDATOR_LOCAL_SCRIPT)
        assert kernel_fallback_reasons(compiled.agent_class) == {}
        run_script(
            PREDATOR_LOCAL_SCRIPT,
            config,
            num_agents=agents,
            ticks=ticks,
            seed=1,
            bounds=((-10.0, 10.0), (-10.0, 10.0)),
        )
        body = compiled.class_decl.run_method().body.statements[0].body.statements
        distance = body[0].initializer.arguments[0]  # (p.x-x)*(p.x-x) + (p.y-y)*(p.y-y)
        dx, dy = distance.left.left, distance.right.left
        assert repr(dx).count("field_name='x'") == 1 and repr(dy).count("field_name='y'") == 1
        # Three textual occurrences each, one evaluation per tick.
        assert evaluated[repr(dx)] == ticks and evaluated[repr(dy)] == ticks
        # ...and so is every other compound expression of the body.
        assert set(evaluated.values()) == {ticks}
        # x and y of the match and of the probe: four gathers a tick, once each.
        assert gathered == {
            ("x", True): ticks,
            ("x", False): ticks,
            ("y", True): ticks,
            ("y", False): ticks,
        }
        # One class, one worker: probe lanes are table rows, proven by one
        # anchoring lookup plus an identity pass (bench/test_smoke.py wants
        # the counter alive on this workload, so not zero).
        assert len(row_of_calls) == ticks


_TYPED_STATE_SCRIPT = """
class Critter {
    public state float x : x; #visibility[2];
    public state float y : y; #visibility[2];
    public state float w : (cnt > 0) ? w + 0.5 : w;
    public state int steps : steps + 1;
    public state int n : n * 3 + 1;
    public state bool hot : !hot;
    private effect int cnt : count;
    public void run() {
        foreach (Critter p : Extent<Critter>) { cnt <- 1; }
    }
}
"""

_TAGGED_SCRIPT = """
class Critter {{
    public state float x : x; #visibility[2];
    public state float y : y; #visibility[2];
    public state float w : {w_rule};
    public state int tag;
    private effect int cnt : count;
    public void run() {{
        foreach (Critter p : Extent<Critter>) {{ cnt <- 1; }}
    }}
}}
"""


class TestUpdateKernelTypes:
    def _final_states(self, source: str, ticks: int, **world):
        runs = {}
        for backend in ("interpreted", None):
            config = BraceConfig(num_workers=1, plan_backend=backend)
            runs[backend] = run_script(source, config, ticks=ticks, seed=2, **world).final_states()
        assert states_equal(runs[None], runs["interpreted"])
        return runs[None]

    def test_int_and_bool_rules_are_refused_and_keep_their_types(self):
        cls = compile_script(_TYPED_STATE_SCRIPT).agent_class
        # The query phase still compiles; the update phase says why not.
        assert kernel_fallback_reasons(cls) == {
            "update": "update rule of non-float field 'steps'"
        }
        states = self._final_states(_TYPED_STATE_SCRIPT, ticks=2, num_agents=6)
        for state in states.values():
            assert (state["steps"], state["n"], state["hot"]) == (2, 4, False)
            assert [type(state[name]) for name in ("steps", "n", "hot")] == [int, int, bool]

    def test_int_rule_past_two_to_the_53_keeps_its_value(self):
        # 3**36 // 2 needs 57 bits: a float64 column rounds it at tick 35.
        states = self._final_states(_TYPED_STATE_SCRIPT, ticks=36, num_agents=3)
        assert {state["n"] for state in states.values()} == {(3**36 - 1) // 2}

    @pytest.mark.parametrize(
        "w_rule, kernel_runs",
        [
            ("(cnt > 0) ? w + 0.5 : w", True),  # tag is never packed
            ("w + tag * 0", False),  # tag is read: pack fails, phase falls back
        ],
    )
    def test_unpackable_value_in_a_rule_less_field(self, monkeypatch, w_rule, kernel_runs):
        completed = []
        plain_run = UpdateKernel.run

        def recording_run(kernel, agents, context):
            plain_run(kernel, agents, context)
            completed.append(len(agents))

        monkeypatch.setattr(UpdateKernel, "run", recording_run)
        initial = [
            {"x": 0.5 * index, "y": 0.0, "tag": 2**53 + 1 if index == 2 else index}
            for index in range(5)
        ]
        states = self._final_states(
            _TAGGED_SCRIPT.format(w_rule=w_rule), ticks=2, initial_states=initial
        )
        assert sorted(state["tag"] for state in states.values()) == [0, 1, 3, 4, 2**53 + 1]
        assert bool(completed) == kernel_runs


class TestPlanSelectionReporting:
    def test_selection_reports_reason(self):
        source = _combinator_script("sum", "p.")
        selection = compile_script(source).plan_selection
        assert "provable subset" in selection.reason

    def test_backend_recorded_in_config_validation(self):
        with pytest.raises(Exception, match="plan backend"):
            dataclasses.replace(BraceConfig(), plan_backend="simd").validate()
