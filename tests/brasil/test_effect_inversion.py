"""Tests for effect inversion (Theorems 2 and 3, simplified construction)."""

import pytest

from repro.brasil.ast_nodes import EffectAssign, ForEach, walk_statements
from repro.brasil.effect_inversion import EffectInversionError, invert_effects
from repro.brasil.parser import parse
from repro.brasil.semantics import analyze_class

NON_LOCAL = """
class Fish {
  public state float x : (x + vx); #range[-3, 3];
  public state float vx : vx + avoid / count;
  private effect float avoid : sum;
  private effect int count : sum;
  public void run() {
    foreach (Fish p : Extent<Fish>) {
      p.avoid <- (x - p.x) * 0.5;
      p.count <- 1;
      count <- 0;
    }
  }
}
"""


def non_local_assignments(class_decl):
    run = class_decl.run_method()
    return [
        statement
        for statement in walk_statements(run.body)
        if isinstance(statement, EffectAssign) and statement.target_agent is not None
    ]


class TestInversion:
    def test_local_script_returned_unchanged(self):
        source = NON_LOCAL.replace("p.avoid", "avoid").replace("p.count", "count")
        declaration = parse(source).classes[0]
        result = invert_effects(declaration)
        assert not result.inverted
        assert result.class_decl is declaration

    def test_inverted_script_has_only_local_assignments(self):
        declaration = parse(NON_LOCAL).classes[0]
        result = invert_effects(declaration)
        assert result.inverted
        assert non_local_assignments(result.class_decl) == []
        info = analyze_class(result.class_decl)
        assert not info.has_non_local_effects

    def test_original_declaration_is_not_mutated(self):
        declaration = parse(NON_LOCAL).classes[0]
        invert_effects(declaration)
        assert len(non_local_assignments(declaration)) == 2

    def test_inverted_assignment_count_reported(self):
        result = invert_effects(parse(NON_LOCAL).classes[0])
        assert result.inverted_assignments == 2

    def test_local_assignments_kept_in_original_loop(self):
        result = invert_effects(parse(NON_LOCAL).classes[0])
        loops = [
            statement
            for statement in result.class_decl.run_method().body.statements
            if isinstance(statement, ForEach)
        ]
        # Q1 keeps the loop with the local `count <- 0`, Q3 adds the inverted loop.
        assert len(loops) == 2

    def test_visibility_bound_preserved_by_symmetric_inversion(self):
        result = invert_effects(parse(NON_LOCAL).classes[0])
        x_field = result.class_decl.field_named("x")
        assert x_field.visibility_radius() == 3.0
        assert not result.visibility_doubled


class TestUnsupportedPatterns:
    def test_rand_in_value_rejected(self):
        source = NON_LOCAL.replace("(x - p.x) * 0.5", "rand()")
        with pytest.raises(EffectInversionError):
            invert_effects(parse(source).classes[0])

    def test_assignment_through_other_reference_rejected(self):
        source = """
        class A {
          public state float x : x; #range[-1, 1];
          private effect float e : sum;
          public void run() {
            foreach (A p : Extent<A>) {
              foreach (A q : Extent<A>) {
                q.e <- p.x;
              }
            }
          }
        }
        """
        with pytest.raises(EffectInversionError):
            invert_effects(parse(source).classes[0])

    def test_value_referencing_outer_local_rejected(self):
        source = """
        class A {
          public state float x : x; #range[-1, 1];
          private effect float e : sum;
          public void run() {
            const float factor = 2;
            foreach (A p : Extent<A>) {
              p.e <- x * factor;
            }
          }
        }
        """
        with pytest.raises(EffectInversionError):
            invert_effects(parse(source).classes[0])

    def test_guarded_assignment_is_inverted_with_swapped_condition(self):
        source = """
        class A {
          public state float x : x; #range[-2, 2];
          private effect float e : sum;
          public void run() {
            foreach (A p : Extent<A>) {
              if (p.x > x) { p.e <- x - p.x; }
            }
          }
        }
        """
        result = invert_effects(parse(source).classes[0])
        assert result.inverted
        assert non_local_assignments(result.class_decl) == []


NESTED_FOREACH = """
class A {
  public state float x : x; #range[-1, 1];
  private effect float e : sum;
  public void run() {
    foreach (A p : Extent<A>) {
      foreach (A q : Extent<A>) {
        q.e <- p.x;
      }
    }
  }
}
"""

class TestErrorMessages:
    """Non-invertible patterns must explain *why* they cannot be inverted."""

    def test_nested_foreach_message_names_the_construct(self):
        with pytest.raises(EffectInversionError, match="nested foreach"):
            invert_effects(parse(NESTED_FOREACH).classes[0])

    def test_rand_message_explains_the_stream_ownership(self):
        source = NON_LOCAL.replace("(x - p.x) * 0.5", "rand()")
        with pytest.raises(EffectInversionError, match="rand\\(\\).*stream"):
            invert_effects(parse(source).classes[0])

    def test_outer_local_message_names_the_variable(self):
        source = """
        class A {
          public state float x : x; #range[-1, 1];
          private effect float e : sum;
          public void run() {
            const float factor = 2;
            foreach (A p : Extent<A>) {
              p.e <- x * factor;
            }
          }
        }
        """
        with pytest.raises(EffectInversionError, match="factor"):
            invert_effects(parse(source).classes[0])


class TestFromScriptSurfacesInversionErrors:
    """from_script(effect_inversion="on") must raise descriptively, not crash."""

    def test_non_invertible_script_error_keeps_type_and_reason(self):
        from repro.api import Simulation

        with pytest.raises(EffectInversionError) as excinfo:
            Simulation.from_script(NESTED_FOREACH, num_agents=4, effect_inversion="on")
        message = str(excinfo.value)
        assert "cannot compile BRASIL script" in message
        assert "nested foreach" in message

    def test_auto_mode_falls_back_to_two_pass_plan(self):
        from repro.api import Simulation
        from repro.brace.config import BraceConfig

        session = Simulation.from_script(
            NESTED_FOREACH,
            config=BraceConfig(num_workers=2),
            num_agents=4,
            effect_inversion="auto",
        )
        with session:
            result = session.run(1)
        assert not session.compiled.was_inverted
        assert session.config.non_local_effects is True
        assert result.metrics.ticks[-1].num_passes == 3

    def test_script_path_appears_in_the_error(self, tmp_path):
        from repro.api import Simulation

        path = tmp_path / "bad.brasil"
        path.write_text(NESTED_FOREACH)
        with pytest.raises(EffectInversionError, match="bad.brasil"):
            Simulation.from_script(str(path), effect_inversion="on")
