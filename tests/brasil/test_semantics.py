"""Tests for BRASIL semantic analysis (state-effect pattern enforcement)."""

import pytest

from repro.brasil.parser import parse
from repro.brasil.semantics import analyze, analyze_class
from repro.core.errors import BrasilSemanticError


def analyze_source(source):
    return analyze_class(parse(source).classes[0])


VALID = """
class Fish {
  public state float x : (x + vx); #range[-2, 2];
  public state float vx : vx + pull / count;
  private effect float pull : sum;
  private effect int count : sum;
  public void run() {
    foreach (Fish p : Extent<Fish>) {
      pull <- p.x - x;
      count <- 1;
    }
  }
}
"""


class TestScriptInfo:
    def test_valid_script_info(self):
        info = analyze_source(VALID)
        assert info.class_name == "Fish"
        assert info.state_field_names == ["x", "vx"]
        assert info.effect_field_names == ["pull", "count"]
        assert info.spatial_field_names == ["x"]
        assert info.visibility_radii == {"x": 2.0}
        assert info.has_bounded_visibility
        assert not info.has_non_local_effects
        assert info.local_assignment_count == 2
        assert info.has_run_method

    def test_non_local_assignments_detected(self):
        source = VALID.replace("pull <- p.x - x;", "p.pull <- x - p.x;")
        info = analyze_source(source)
        assert info.has_non_local_effects
        assert info.non_local_assignment_count == 1

    def test_rand_usage_flags(self):
        source = """
        class A {
          public state float x : x + rand();
          private effect float e : sum;
          public void run() { e <- rand(); }
        }
        """
        info = analyze_source(source)
        assert info.uses_rand_in_query
        assert info.uses_rand_in_update

    def test_analyze_whole_script(self):
        results = analyze(parse(VALID))
        assert set(results) == {"Fish"}


class TestViolations:
    def test_state_written_in_query_phase(self):
        source = """
        class A {
          public state float x : x;
          private effect float e : sum;
          public void run() { x = 1; }
        }
        """
        with pytest.raises(BrasilSemanticError):
            analyze_source(source)

    def test_effect_read_in_query_phase(self):
        source = """
        class A {
          public state float x : x;
          private effect float e : sum;
          public void run() { e <- e + 1; }
        }
        """
        with pytest.raises(BrasilSemanticError):
            analyze_source(source)

    def test_effect_assignment_to_state_field(self):
        source = """
        class A {
          public state float x : x;
          private effect float e : sum;
          public void run() { x <- 1; }
        }
        """
        with pytest.raises(BrasilSemanticError):
            analyze_source(source)

    def test_update_rule_cannot_access_other_agents(self):
        source = """
        class A {
          public state float x : p.x;
          private effect float e : sum;
        }
        """
        with pytest.raises(BrasilSemanticError):
            analyze_source(source)

    def test_update_rule_unknown_name(self):
        source = """
        class A {
          public state float x : bogus + 1;
        }
        """
        with pytest.raises(BrasilSemanticError):
            analyze_source(source)

    def test_effect_without_combinator(self):
        source = """
        class A {
          public state float x : x;
          private effect float e;
        }
        """
        with pytest.raises(BrasilSemanticError):
            analyze_source(source)

    def test_duplicate_field_names(self):
        source = """
        class A {
          public state float x : x;
          public state float x : x;
        }
        """
        with pytest.raises(BrasilSemanticError):
            analyze_source(source)

    def test_unknown_function_in_query(self):
        source = """
        class A {
          public state float x : x;
          private effect float e : sum;
          public void run() { e <- frobnicate(x); }
        }
        """
        with pytest.raises(BrasilSemanticError):
            analyze_source(source)

    def test_unknown_name_in_query(self):
        source = """
        class A {
          public state float x : x;
          private effect float e : sum;
          public void run() { e <- mystery; }
        }
        """
        with pytest.raises(BrasilSemanticError):
            analyze_source(source)

    def test_assignment_to_undeclared_local(self):
        source = """
        class A {
          public state float x : x;
          private effect float e : sum;
          public void run() { temp = 1; }
        }
        """
        with pytest.raises(BrasilSemanticError):
            analyze_source(source)

    def test_effect_field_with_spatial_constraint_rejected(self):
        source = """
        class A {
          public state float x : x;
          private effect float e : sum; #range[-1, 1];
        }
        """
        with pytest.raises(BrasilSemanticError):
            analyze_source(source)
