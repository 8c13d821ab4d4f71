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

from repro.brace.config import BraceConfig
from repro.brasil import compile_script, run_script
from repro.brasil.kernels import QueryKernel, kernel_fallback_reasons
from repro.core.context import QueryContext
from repro.core.soa import AgentTable, states_equal
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
    int_comb = draw(st.sampled_from(["sum", "count"]))
    use_flag = draw(st.booleans())
    flag_comb = draw(st.sampled_from(["any", "all"]))
    # Non-local targets go through effect inversion before kernel building.
    target = draw(st.sampled_from(["", "p."]))
    use_local = draw(st.booleans())
    use_guard = draw(st.booleans())
    use_rand = draw(st.sampled_from([False, False, False, True]))

    pair_atoms = _SELF_ATOMS + _OTHER_ATOMS
    value_atoms = pair_atoms + (("d",) if use_local else ())
    acc_value = draw(_expr(value_atoms, 2))
    flag_value = draw(_comparison(value_atoms))

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
    if use_guard:
        guard = draw(_comparison(pair_atoms))
        body.append("if " + guard + " { " + " ".join(assigns) + " }")
    else:
        body.extend(assigns)

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
    return (
        "class Critter {\n"
        f"    public state float x : ({x_rule}); {geometry}\n"
        f"    public state float y : ({y_rule}); {geometry}\n"
        f"    public state float w : {w_rule};\n"
        f"    private effect float acc : {float_comb};\n"
        f"    private effect int cnt : {int_comb};\n"
        f"{flag_decl}"
        "    public void run() {\n"
        "        foreach (Critter p : Extent<Critter>) {\n"
        + "\n".join("            " + line for line in body)
        + "\n        }\n    }\n}\n"
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


class TestFuzzedScripts:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(source=brasil_scripts(), seed=st.integers(min_value=0, max_value=2**20))
    def test_compiled_matches_interpreted(self, source: str, seed: int):
        _assert_differential(source, seed=seed)

    @pytest.mark.slow
    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(source=brasil_scripts(), seed=st.integers(min_value=0, max_value=2**20))
    def test_compiled_matches_interpreted_deep(self, source: str, seed: int):
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
        assert calls["row_of"] <= agents * ticks


class TestPlanSelectionReporting:
    def test_selection_reports_reason(self):
        source = _combinator_script("sum", "p.")
        selection = compile_script(source).plan_selection
        assert "provable subset" in selection.reason

    def test_backend_recorded_in_config_validation(self):
        with pytest.raises(Exception, match="plan backend"):
            dataclasses.replace(BraceConfig(), plan_backend="simd").validate()
