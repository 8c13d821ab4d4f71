"""The BRASIL-to-engine backend: ``Simulation.from_script`` across executors.

The acceptance bar of the compilation backend: a BRASIL script run through
``Simulation.from_script`` produces bit-identical agent states on the
serial, thread and process executors, for a local-effect script (traffic)
and an inverted non-local one (fish school).
"""

import dataclasses
import pickle

import pytest

from repro.api import Simulation
from repro.brace.config import BraceConfig
from repro.brasil import AgentClassSpec, compile_script, compiled_class_for_spec
from repro.core.errors import BrasilError
from repro.core.soa import states_equal
from repro.simulations.predator.brasil_scripts import FISH_SCHOOL_SCRIPT
from repro.simulations.traffic.brasil_scripts import TRAFFIC_SCRIPT

TICKS = 3
TRAFFIC_BOUNDS = ((0.0, 1000.0),)


def run(script, config=None, ticks=TICKS, **world):
    """Run ``script`` for ``ticks`` ticks; returns ``(session, result)``."""
    with Simulation.from_script(script, config=config, **world) as session:
        return session, session.run(ticks)


def run_traffic(executor):
    config = BraceConfig(num_workers=4, executor=executor, max_workers=2)
    return run(TRAFFIC_SCRIPT, config, num_agents=60, bounds=TRAFFIC_BOUNDS, seed=3)


def run_fish(executor):
    config = BraceConfig(num_workers=4, executor=executor, max_workers=2)
    return run(FISH_SCHOOL_SCRIPT, config, num_agents=60, seed=5)


class TestCrossBackendEquivalence:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_traffic_states_bit_identical_to_serial(self, backend):
        serial_session, serial = run_traffic("serial")
        other_session, other = run_traffic(backend)
        assert states_equal(serial.final_states, other.final_states)
        assert serial_session.world.same_state_as(other_session.world, tolerance=0.0)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_fish_states_bit_identical_to_serial(self, backend):
        _, serial = run_fish("serial")
        _, other = run_fish(backend)
        assert states_equal(serial.final_states, other.final_states)

    def test_traffic_actually_moves(self):
        _, result = run_traffic("serial")
        positions = [state["x"] for state in result.final_states.values()]
        speeds = [state["v"] for state in result.final_states.values()]
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
        config = Simulation.from_script(FISH_SCHOOL_SCRIPT).config
        assert config.non_local_effects is False  # inversion removed them

    def test_uninverted_script_keeps_the_second_reduce_pass(self):
        session = Simulation.from_script(FISH_SCHOOL_SCRIPT, effect_inversion="off")
        assert session.config.non_local_effects is True

    def test_the_grid_is_the_default_access_path(self):
        config = Simulation.from_script(FISH_SCHOOL_SCRIPT).config
        assert config.spatial_backend == "vectorized"

    def test_the_callers_spatial_backend_passes_through(self):
        config = Simulation.from_script(
            FISH_SCHOOL_SCRIPT, config=BraceConfig(spatial_backend="python")
        ).config
        assert config.spatial_backend == "python"

    def test_the_script_sets_the_reduce_pass_structure_only(self):
        # Every field but non_local_effects is the caller's, even where the
        # caller's value disagrees with the script.
        base = BraceConfig(num_workers=3, non_local_effects=True, plan_backend="interpreted")
        config = Simulation.from_script(FISH_SCHOOL_SCRIPT, config=base).config
        assert config == dataclasses.replace(base, non_local_effects=False)


class TestFromScriptInputs:
    def test_accepts_a_script_file_path(self, tmp_path):
        path = tmp_path / "traffic.brasil"
        path.write_text(TRAFFIC_SCRIPT)
        session, result = run(
            str(path),
            BraceConfig(num_workers=2),
            ticks=1,
            num_agents=10,
            bounds=TRAFFIC_BOUNDS,
            seed=1,
        )
        assert session.world.agent_count() == 10
        assert len(result.metrics.ticks) == 1

    def test_missing_path_raises_descriptive_error(self):
        with pytest.raises(BrasilError, match="does not exist"):
            Simulation.from_script("no_such_script.brasil")

    def test_missing_path_object_raises_the_same_error(self):
        from pathlib import Path

        with pytest.raises(BrasilError, match="does not exist"):
            Simulation.from_script(Path("no_such_script.brasil"))

    def test_bounds_dimension_mismatch_rejected(self):
        with pytest.raises(BrasilError, match="spatial field"):
            Simulation.from_script(TRAFFIC_SCRIPT, bounds=((0.0, 10.0), (0.0, 10.0)))

    def test_initial_states_take_precedence(self):
        session, _ = run(
            TRAFFIC_SCRIPT,
            BraceConfig(num_workers=2),
            ticks=1,
            initial_states=[{"x": 10.0}, {"x": 30.0, "v": 2.0}],
            bounds=TRAFFIC_BOUNDS,
        )
        assert session.world.agent_count() == 2
