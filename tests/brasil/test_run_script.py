"""The BRASIL-to-engine backend: run_script across executor backends.

The acceptance bar of the compilation backend: a BRASIL script executed via
``run_script`` produces bit-identical agent states on the serial, thread and
process executors, for a local-effect script (traffic) and an inverted
non-local one (fish school).
"""

import pickle

import pytest

from repro.brace.config import BraceConfig
from repro.brasil import (
    AgentClassSpec,
    compile_script,
    compiled_class_for_spec,
    config_for_script,
    run_script,
)
from repro.core.errors import BrasilError
from repro.core.soa import states_equal
from repro.simulations.predator.brasil_scripts import FISH_SCHOOL_SCRIPT
from repro.simulations.traffic.brasil_scripts import TRAFFIC_SCRIPT

TICKS = 3
TRAFFIC_BOUNDS = ((0.0, 1000.0),)


def run_traffic(executor, **kwargs):
    config = BraceConfig(num_workers=4, executor=executor, max_workers=2)
    return run_script(
        TRAFFIC_SCRIPT,
        config,
        ticks=TICKS,
        num_agents=60,
        bounds=TRAFFIC_BOUNDS,
        seed=3,
        **kwargs,
    )


def run_fish(executor):
    config = BraceConfig(num_workers=4, executor=executor, max_workers=2)
    return run_script(FISH_SCHOOL_SCRIPT, config, ticks=TICKS, num_agents=60, seed=5)


class TestCrossBackendEquivalence:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_traffic_states_bit_identical_to_serial(self, backend):
        serial = run_traffic("serial")
        other = run_traffic(backend)
        assert states_equal(serial.final_states(), other.final_states())
        assert serial.world.same_state_as(other.world, tolerance=0.0)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_fish_states_bit_identical_to_serial(self, backend):
        serial = run_fish("serial")
        other = run_fish(backend)
        assert states_equal(serial.final_states(), other.final_states())

    def test_traffic_actually_moves(self):
        run = run_traffic("serial")
        positions = [state["x"] for state in run.final_states().values()]
        speeds = [state["v"] for state in run.final_states().values()]
        assert any(speed > 0 for speed in speeds)
        assert all(0.0 <= position < 1000.0 for position in positions)


class TestCompiledAgentPickling:
    def test_round_trip_preserves_state_and_behavior(self):
        compiled = compile_script(TRAFFIC_SCRIPT)
        agent = compiled.make_agent(agent_id=3, x=12.5, v=4.0)
        clone = pickle.loads(pickle.dumps(agent))
        assert type(clone).__name__ == "Car"
        assert clone.agent_id == 3
        assert clone.state_dict() == agent.state_dict()
        # The rebuilt class carries the interpreted run() body.
        assert type(clone)._run_body is not None

    def test_unpickled_agents_share_one_class_per_spec(self):
        compiled = compile_script(TRAFFIC_SCRIPT)
        first = pickle.loads(pickle.dumps(compiled.make_agent(agent_id=0, x=1.0)))
        second = pickle.loads(pickle.dumps(compiled.make_agent(agent_id=1, x=2.0)))
        assert type(first) is type(second)

    def test_class_for_spec_is_cached(self):
        spec = AgentClassSpec(source=TRAFFIC_SCRIPT, class_name="Car")
        assert compiled_class_for_spec(spec) is compiled_class_for_spec(spec)

    def test_recompiling_a_script_keeps_one_class_per_spec(self):
        # Pickling agents from a *second* compile of the same source must
        # still produce instances of the (shared) registered class, so
        # type checks against either CompiledScript hold.
        first = compile_script(TRAFFIC_SCRIPT)
        second = compile_script(TRAFFIC_SCRIPT)
        assert first.agent_class is second.agent_class
        clone = pickle.loads(pickle.dumps(second.make_agent(agent_id=1, x=5.0)))
        assert type(clone) is second.agent_class
        assert isinstance(clone, first.agent_class)


class TestScriptConfig:
    def test_inverted_script_needs_one_reduce_pass(self):
        config = config_for_script(compile_script(FISH_SCHOOL_SCRIPT))
        assert config.non_local_effects is False  # inversion removed them

    def test_uninverted_script_keeps_the_second_reduce_pass(self):
        compiled = compile_script(FISH_SCHOOL_SCRIPT, effect_inversion="off")
        assert config_for_script(compiled).non_local_effects is True

    def test_the_grid_is_the_default_access_path(self):
        config = config_for_script(compile_script(FISH_SCHOOL_SCRIPT))
        assert config.spatial_backend == "vectorized"

    def test_the_callers_spatial_backend_passes_through(self):
        compiled = compile_script(FISH_SCHOOL_SCRIPT)
        config = config_for_script(compiled, BraceConfig(spatial_backend="python"))
        assert config.spatial_backend == "python"

    def test_overrides_are_the_reduce_pass_structure_only(self):
        compiled = compile_script(FISH_SCHOOL_SCRIPT)
        assert compiled.brace_config_overrides() == {"non_local_effects": False}


class TestRunScriptInputs:
    def test_accepts_a_script_file_path(self, tmp_path):
        path = tmp_path / "traffic.brasil"
        path.write_text(TRAFFIC_SCRIPT)
        run = run_script(
            str(path),
            BraceConfig(num_workers=2),
            ticks=1,
            num_agents=10,
            bounds=TRAFFIC_BOUNDS,
            seed=1,
        )
        assert run.world.agent_count() == 10
        assert len(run.metrics.ticks) == 1

    def test_missing_path_raises_descriptive_error(self):
        with pytest.raises(BrasilError, match="does not exist"):
            run_script("no_such_script.brasil")

    def test_missing_path_object_raises_the_same_error(self):
        from pathlib import Path

        with pytest.raises(BrasilError, match="does not exist"):
            run_script(Path("no_such_script.brasil"))

    def test_bounds_dimension_mismatch_rejected(self):
        with pytest.raises(BrasilError, match="spatial field"):
            run_script(TRAFFIC_SCRIPT, ticks=1, bounds=((0.0, 10.0), (0.0, 10.0)))

    def test_initial_states_take_precedence(self):
        run = run_script(
            TRAFFIC_SCRIPT,
            BraceConfig(num_workers=2),
            ticks=1,
            initial_states=[{"x": 10.0}, {"x": 30.0, "v": 2.0}],
            bounds=TRAFFIC_BOUNDS,
        )
        assert run.world.agent_count() == 2
