"""Tests for the monad algebra, the translation and the plan optimizer."""

import pytest

from repro.brasil.algebra import (
    Aggregate,
    Apply,
    Arith,
    Compose,
    Const,
    FlatMap,
    Get,
    Identity,
    MapOp,
    Negate,
    NotNil,
    PairWith,
    Project,
    Select,
    Sng,
    TupleCons,
    UnionOp,
    cartesian_product,
)
from repro.brasil.optimizer import optimize_plan
from repro.brasil.parser import parse
from repro.brasil.translate import (
    QueryTranslator,
    TranslationNotSupported,
    aggregate_effects,
    environment_for,
    translate_query,
)
from repro.core.combinators import get_combinator
from repro.core.context import QueryContext
from repro.core.phase import Phase, phase
from repro.brasil import compile_script
from repro.simulations.predator.brasil_scripts import (
    FISH_SCHOOL_SCRIPT,
    PREDATOR_LOCAL_SCRIPT,
    PREDATOR_NON_LOCAL_SCRIPT,
)
from repro.simulations.traffic.brasil_scripts import TRAFFIC_SCRIPT
from tests.brasil.test_compiler_and_interpreter import build_world

FISH = """
class Fish {
  public state float x : (x + vx); #range[-4, 4];
  public state float vx : vx + pull / count;
  private effect float pull : sum;
  private effect int count : sum;
  public void run() {
    foreach (Fish p : Extent<Fish>) {
      pull <- (p.x - x) * 0.5;
      count <- 1;
    }
  }
}
"""

#: Every BRASIL script the package ships, by name.
SHIPPED_SCRIPTS = {
    "fish_school": FISH_SCHOOL_SCRIPT,
    "predator_local": PREDATOR_LOCAL_SCRIPT,
    "predator_non_local": PREDATOR_NON_LOCAL_SCRIPT,
    "traffic": TRAFFIC_SCRIPT,
}


class TestAlgebraOperators:
    def test_identity_const_compose(self):
        assert Identity().evaluate(5) == 5
        assert Const(3).evaluate("ignored") == 3
        assert Compose(Const(3), Arith("+", Identity(), Const(1))).evaluate(None) == 4

    def test_tuple_and_project(self):
        plan = TupleCons({"a": Const(1), "b": Identity()})
        assert plan.evaluate(7) == {"a": 1, "b": 7}
        assert Project("a").evaluate({"a": 2}) == 2
        assert Project("missing").evaluate({"a": 2}) is None
        assert Project("a").evaluate(None) is None

    def test_map_flatmap_sng_flatten(self):
        assert MapOp(Arith("*", Identity(), Const(2))).evaluate([1, 2, 3]) == [2, 4, 6]
        assert FlatMap(Sng()).evaluate([1, 2]) == [1, 2]
        assert Sng().evaluate(9) == [9]

    def test_pairwith(self):
        value = {"agent": 1, "others": [10, 20]}
        paired = PairWith("others").evaluate(value)
        assert paired == [{"agent": 1, "others": 10}, {"agent": 1, "others": 20}]

    def test_select_and_get(self):
        assert Select(Arith(">", Identity(), Const(1))).evaluate([0, 1, 2, 3]) == [2, 3]
        assert Get().evaluate([5]) == 5
        assert Get().evaluate([1, 2]) is None

    def test_union_and_aggregates(self):
        union = UnionOp([Sng(), Sng()])
        assert union.evaluate(1) == [1, 1]
        assert Aggregate("sum").evaluate([1, 2, None, 3]) == 6
        assert Aggregate("count").evaluate([1, None]) == 1
        assert Aggregate("mean").evaluate([2, 4]) == 3
        assert Aggregate("min").evaluate([]) is None

    def test_nil_propagation(self):
        assert Arith("+", Const(None), Const(1)).evaluate(None) is None
        assert Arith("/", Const(1), Const(0)).evaluate(None) is None
        assert Negate("-", Const(None)).evaluate(None) is None
        assert Apply("sqrt", [Const(-1.0)]).evaluate(None) is None
        assert NotNil(Const(None)).evaluate(None) is False
        assert NotNil(Const(1)).evaluate(None) is True

    def test_cartesian_product(self):
        value = {"left": [1, 2], "right": ["a"]}
        product = cartesian_product("left", "right").evaluate(value)
        assert len(product) == 2
        assert {pair["left"] for pair in product} == {1, 2}

    def test_plan_size(self):
        plan = Compose(Identity(), MapOp(Const(1)))
        assert plan.size() == 4


class TestTranslation:
    @pytest.mark.parametrize("script", SHIPPED_SCRIPTS)
    def test_query_plan_effects_match_interpreter(self, script):
        # Theorem 1: the translated plan generates the effects the
        # interpreter accumulates, on every shipped script.
        compiled = compile_script(SHIPPED_SCRIPTS[script])
        plan = translate_query(compiled.class_decl, compiled.info)
        combinators = {
            name: get_combinator(combinator)
            for name, combinator in compiled.info.effect_combinators.items()
        }
        # Recompute one tick's effects through the algebra plan.
        agents = build_world(compiled.agent_class, num_agents=25, seed=6).agents()
        effect_tuples = []
        for agent in agents:
            effect_tuples.extend(plan.evaluate(environment_for(agent, agents)))
        aggregated = aggregate_effects(effect_tuples, combinators)

        # Compare against the values the interpreter accumulated before the update.
        reference = build_world(compiled.agent_class, num_agents=25, seed=6)
        reference_agents = reference.agents()
        context = QueryContext(
            reference_agents, tick=0, seed=reference.seed, spatial_backend="python"
        )
        with phase(Phase.QUERY):
            for agent in reference_agents:
                agent.query(context)
        assert effect_tuples
        for agent in reference_agents:
            for field_name, combinator in combinators.items():
                expected = agent.effect_value(field_name)
                actual = aggregated.get(
                    (agent.agent_id, field_name), combinator.finalize(combinator.identity())
                )
                assert actual == pytest.approx(expected, rel=1e-9)

    def test_translation_rejects_rand(self):
        source = FISH.replace("(p.x - x) * 0.5", "rand()")
        with pytest.raises(TranslationNotSupported):
            translate_query(parse(source).classes[0])

    def test_translation_rejects_local_reassignment(self):
        source = """
        class A {
          public state float x : x; #range[-1, 1];
          private effect float e : sum;
          public void run() {
            float t = 1;
            t = 2;
            e <- t;
          }
        }
        """
        with pytest.raises(TranslationNotSupported):
            QueryTranslator(parse(source).classes[0]).translate()

    def test_empty_run_method_translates_to_empty_effects(self):
        source = """
        class A {
          public state float x : x;
          private effect float e : sum;
        }
        """
        plan = translate_query(parse(source).classes[0])
        assert plan.evaluate({"this": {"x": 1.0, "__id__": 0}, "extent": []}) == []


class TestOptimizer:
    def test_identity_elimination(self):
        plan = Compose(Identity(), Compose(Const(2), Identity()))
        optimized = optimize_plan(plan)
        assert optimized.report.identity_eliminations >= 1
        assert optimized.plan.evaluate(None) == 2
        assert optimized.optimized_size < plan.size()

    def test_map_fusion(self):
        plan = Compose(MapOp(Arith("+", Identity(), Const(1))), MapOp(Arith("*", Identity(), Const(2))))
        optimized = optimize_plan(plan)
        assert optimized.report.map_fusions >= 1
        assert optimized.plan.evaluate([1, 2]) == [4, 6]

    def test_singleton_flattening(self):
        plan = Compose(Sng(), FlatMap(Sng()))
        optimized = optimize_plan(plan)
        assert optimized.report.singleton_flattenings >= 1
        assert optimized.plan.evaluate(3) == [3]

    def test_selection_fusion(self):
        plan = Compose(
            Select(Arith(">", Identity(), Const(0))), Select(Arith("<", Identity(), Const(10)))
        )
        optimized = optimize_plan(plan)
        assert optimized.report.selection_fusions >= 1
        assert optimized.plan.evaluate([-1, 5, 20]) == [5]

    def test_dead_tuple_elimination(self):
        plan = Compose(TupleCons({"a": Const(1), "b": Const(2)}), Project("a"))
        optimized = optimize_plan(plan)
        assert optimized.report.dead_tuple_eliminations >= 1
        assert optimized.plan.evaluate(None) == 1

    @pytest.mark.parametrize("script", SHIPPED_SCRIPTS)
    def test_optimized_query_plan_is_equivalent(self, script):
        compiled = compile_script(SHIPPED_SCRIPTS[script])
        plan = translate_query(compiled.class_decl, compiled.info)
        optimized = optimize_plan(plan)
        world = build_world(compiled.agent_class, num_agents=15, seed=3)
        agents = world.agents()
        for agent in agents[:5]:
            environment = environment_for(agent, agents)
            assert sorted(map(repr, plan.evaluate(environment))) == sorted(
                map(repr, optimized.plan.evaluate(environment))
            )
        assert optimized.report.total > 0
        assert optimized.optimized_size <= optimized.original_size
