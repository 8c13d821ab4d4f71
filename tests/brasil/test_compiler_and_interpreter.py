"""Tests for the BRASIL compiler and the interpreted execution of scripts."""

import numpy as np
import pytest

from repro.brace.config import BraceConfig
from repro.brace.runtime import BraceRuntime
from repro.brasil import compile_script
from repro.brasil.compiler import BrasilCompiler
from repro.brasil.optimizer import optimize_plan
from repro.brasil.translate import TranslationNotSupported, translate_query
from repro.core.engine import SequentialEngine
from repro.core.errors import BrasilError
from repro.core.world import World
from repro.simulations.predator.brasil_scripts import (
    FISH_SCHOOL_SCRIPT,
    PREDATOR_LOCAL_SCRIPT,
    PREDATOR_NON_LOCAL_SCRIPT,
)
from repro.spatial.bbox import BBox

SIMPLE = """
class Walker {
  public state float x : x + step; #range[-1, 1];
  public state float speed : speed;
  private effect float step : sum;
  private effect int seen : count;
  public void run() {
    foreach (Walker p : Extent<Walker>) {
      step <- (p.x - x) * 0.1;
      seen <- 1;
    }
  }
}
"""


def build_world(agent_class, num_agents=40, seed=5, size=40.0, **extra_state):
    world = World(bounds=BBox(((-size, size), (-size, size))) if "y" in agent_class._state_fields
                  else BBox(((-size, size),)), seed=seed)
    rng = np.random.default_rng(seed)
    for _ in range(num_agents):
        state = {"x": float(rng.uniform(-size / 2, size / 2))}
        if "y" in agent_class._state_fields:
            state["y"] = float(rng.uniform(-size / 2, size / 2))
        if "vx" in agent_class._state_fields:
            state["vx"] = float(rng.uniform(-0.5, 0.5))
        if "vy" in agent_class._state_fields:
            state["vy"] = float(rng.uniform(-0.5, 0.5))
        state.update(extra_state)
        world.add_agent(agent_class(**state))
    return world


class TestCompilation:
    def test_compiled_class_declares_fields(self):
        compiled = compile_script(SIMPLE)
        agent_class = compiled.agent_class
        assert set(agent_class._state_fields) == {"x", "speed"}
        assert set(agent_class._effect_fields) == {"step", "seen"}
        assert agent_class._state_fields["x"].spatial
        assert agent_class._state_fields["x"].visibility == 1.0
        assert agent_class._effect_fields["seen"].combinator.name == "count"

    def test_class_selection_in_multi_class_scripts(self):
        source = SIMPLE + "\nclass Other { public state float x : x; }"
        with pytest.raises(BrasilError):
            compile_script(source)
        compiled = compile_script(source, class_name="Other")
        assert compiled.class_name == "Other"
        with pytest.raises(BrasilError):
            compile_script(source, class_name="Missing")

    def test_invalid_inversion_mode_rejected(self):
        with pytest.raises(BrasilError):
            BrasilCompiler(effect_inversion="sometimes")

    def test_the_reduce_pass_structure(self):
        # What a script session sets BraceConfig.non_local_effects from.
        assert compile_script(PREDATOR_LOCAL_SCRIPT).has_non_local_effects is False
        non_local = compile_script(PREDATOR_NON_LOCAL_SCRIPT, effect_inversion="off")
        assert non_local.has_non_local_effects is True

    def test_algebra_plan_built_on_demand_for_pure_scripts(self):
        # compile_script runs no algebra pass; the Appendix B library
        # translates and optimizes the compiled declaration when asked.
        compiled = compile_script(SIMPLE)
        assert not hasattr(compiled, "algebra_plan")
        optimized = optimize_plan(translate_query(compiled.class_decl, compiled.info))
        assert optimized.optimized_size <= optimized.original_size

    def test_rand_scripts_compile_without_an_algebra_plan(self):
        source = """
        class A {
          public state float x : x; #range[-1, 1];
          private effect float e : sum;
          public void run() { e <- rand(); }
        }
        """
        compiled = compile_script(source)
        assert compiled.agent_class is not None
        with pytest.raises(TranslationNotSupported):
            translate_query(compiled.class_decl, compiled.info)


class TestInterpretedExecution:
    def test_compiled_agents_run_and_move(self):
        compiled = compile_script(SIMPLE)
        world = build_world(compiled.agent_class, num_agents=30)
        before = {agent.agent_id: agent.x for agent in world.agents()}
        SequentialEngine(world).run(3)
        assert any(agent.x != before[agent.agent_id] for agent in world.agents())

    def test_reachability_clamp_from_range_annotation(self):
        compiled = compile_script(SIMPLE)
        world = build_world(compiled.agent_class, num_agents=30)
        before = {agent.agent_id: agent.x for agent in world.agents()}
        SequentialEngine(world).run_tick()
        for agent in world.agents():
            assert abs(agent.x - before[agent.agent_id]) <= 1.0 + 1e-9

    def test_deterministic_runs(self):
        compiled = compile_script(FISH_SCHOOL_SCRIPT)
        first = build_world(compiled.agent_class, num_agents=40, seed=8)
        second = build_world(compiled.agent_class, num_agents=40, seed=8)
        SequentialEngine(first).run(4)
        SequentialEngine(second).run(4)
        assert first.same_state_as(second)

    def test_foreach_semantics_do_not_depend_on_the_access_path(self):
        compiled = compile_script(FISH_SCHOOL_SCRIPT)
        grid = build_world(compiled.agent_class, num_agents=40, seed=8)
        scan = build_world(compiled.agent_class, num_agents=40, seed=8)
        BraceRuntime(grid, BraceConfig(num_workers=1, spatial_backend="vectorized")).run(3)
        SequentialEngine(scan).run(3)  # the oracle: the linear scan
        assert grid.same_state_as(scan)

    def test_compiled_script_runs_on_brace(self):
        compiled = compile_script(FISH_SCHOOL_SCRIPT)
        reference = build_world(compiled.agent_class, num_agents=40, seed=8)
        SequentialEngine(reference).run(4)
        world = build_world(compiled.agent_class, num_agents=40, seed=8)
        config = BraceConfig(num_workers=4, non_local_effects=compiled.has_non_local_effects)
        BraceRuntime(world, config).run(4)
        assert world.same_state_as(reference)

    def test_predator_scripts_local_and_inverted_agree(self):
        inverted = compile_script(PREDATOR_NON_LOCAL_SCRIPT)  # auto-inverted
        assert inverted.was_inverted
        hand_local = compile_script(PREDATOR_LOCAL_SCRIPT)
        first = build_world(inverted.agent_class, num_agents=40, seed=2, energy=10.0)
        second = build_world(hand_local.agent_class, num_agents=40, seed=2, energy=10.0)
        SequentialEngine(first).run(4)
        SequentialEngine(second).run(4)
        assert first.same_state_as(second)

    def test_non_inverted_two_pass_brace_matches_inverted_sequential(self):
        non_local = compile_script(PREDATOR_NON_LOCAL_SCRIPT, effect_inversion="off")
        inverted = compile_script(PREDATOR_NON_LOCAL_SCRIPT)
        reference = build_world(inverted.agent_class, num_agents=40, seed=4, energy=10.0)
        SequentialEngine(reference).run(3)
        world = build_world(non_local.agent_class, num_agents=40, seed=4, energy=10.0)
        config = BraceConfig(num_workers=3, non_local_effects=True)
        BraceRuntime(world, config).run(3)
        assert world.same_state_as(reference)
