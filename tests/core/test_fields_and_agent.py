"""Tests for state/effect fields, phase enforcement and the Agent base class."""

import pytest

from repro.core.agent import Agent
from repro.core.combinators import COLLECT, MEAN, MIN, SUM, Combinator
from repro.core.errors import AgentDefinitionError, PhaseViolationError
from repro.core.fields import EffectField, StateField
from repro.core.phase import Phase, phase, set_enforcement
from repro.spatial.bbox import BBox

from tests.conftest import Boid


class Probe(Agent):
    """A minimal agent exercising the field machinery."""

    x = StateField(1.0, spatial=True, visibility=4.0, reachability=1.0)
    y = StateField(2.0, spatial=True, visibility=4.0, reachability=1.0)
    plain = StateField(0.0)
    total = EffectField(SUM)
    best = EffectField(MIN)


#: A collect-style combinator whose identity is a *mutable* list.
BAG = Combinator("bag", list, lambda acc, value: acc + [value], merge_fn=lambda a, b: a + b)


class Gatherer(Agent):
    """Effect fields with immutable (tuple) and mutable (list) identities."""

    x = StateField(0.0, spatial=True, visibility=1.0)
    trail = StateField(None)
    total = EffectField(SUM)
    average = EffectField(MEAN)
    seen = EffectField(COLLECT)
    bag = EffectField(BAG)


class TestDeclarations:
    def test_fields_collected_by_metaclass(self):
        assert set(Probe._state_fields) == {"x", "y", "plain"}
        assert set(Probe._effect_fields) == {"total", "best"}
        assert Probe._spatial_fields == ["x", "y"]

    def test_inherited_fields(self):
        class Extended(Probe):
            z = StateField(9.0)

        agent = Extended()
        assert agent.z == 9.0
        assert agent.x == 1.0
        assert set(Extended._state_fields) == {"x", "y", "plain", "z"}

    def test_defaults_and_constructor_overrides(self):
        agent = Probe(x=5.0)
        assert agent.x == 5.0
        assert agent.y == 2.0
        assert agent.total == 0.0

    def test_mutable_defaults_are_copied_per_agent(self):
        class Holder(Agent):
            items = StateField([])
            scale = StateField(1.5)

        first, second = Holder(), Holder()
        first.items.append(1)
        assert second.items == [] and Holder._state_fields["items"].default == []
        # A passed value replaces the default in the declared field order.
        passed = Holder(items=[2])
        assert passed.state_dict() == {"items": [2], "scale": 1.5}
        assert list(passed.state_dict()) == ["items", "scale"]

    def test_unknown_constructor_field_rejected(self):
        with pytest.raises(AgentDefinitionError):
            Probe(unknown=1.0)

    def test_visibility_on_non_spatial_field_rejected(self):
        with pytest.raises(ValueError):
            StateField(0.0, visibility=2.0)

    def test_spatial_accessors(self):
        agent = Probe(x=3.0, y=4.0)
        assert agent.position() == (3.0, 4.0)
        assert agent.visibility_radii() == (4.0, 4.0)
        assert agent.reachability_radii() == (1.0, 1.0)
        assert agent.visible_region().contains_point((6.0, 4.0))
        assert agent.reachable_region() == BBox(((2.0, 4.0), (3.0, 5.0)))
        assert Probe.has_bounded_visibility()


class TestPhaseEnforcement:
    def test_state_write_forbidden_in_query(self):
        agent = Probe()
        with phase(Phase.QUERY):
            with pytest.raises(PhaseViolationError):
                agent.x = 3.0

    def test_effect_read_forbidden_in_query(self):
        agent = Probe()
        with phase(Phase.QUERY):
            with pytest.raises(PhaseViolationError):
                _ = agent.total

    def test_effect_write_forbidden_in_update(self):
        agent = Probe()
        with phase(Phase.UPDATE):
            with pytest.raises(PhaseViolationError):
                agent.total = 1.0

    def test_state_write_by_other_agent_forbidden_in_update(self):
        agent = Probe()
        with phase(Phase.UPDATE):
            with pytest.raises(PhaseViolationError):
                agent.plain = 1.0  # agent._updating is False

    def test_own_state_write_allowed_in_update(self):
        agent = Probe()
        agent._updating = True
        with phase(Phase.UPDATE):
            agent.plain = 7.0
        agent._updating = False
        assert agent.plain == 7.0

    def test_enforcement_can_be_disabled(self):
        agent = Probe()
        set_enforcement(False)
        try:
            with phase(Phase.QUERY):
                agent.plain = 3.0
                _ = agent.total
        finally:
            set_enforcement(True)
        assert agent.plain == 3.0

    def test_reachability_clamp_in_update(self):
        agent = Probe(x=10.0)
        agent._updating = True
        with phase(Phase.UPDATE):
            agent.x = 20.0  # reachability is 1.0, so the move is clamped
        assert agent.x == 11.0

    def test_idle_phase_allows_everything(self):
        agent = Probe()
        agent.x = 50.0
        agent.total = 5.0
        assert agent.x == 50.0
        assert agent.total == 5.0


class TestEffectAggregation:
    def test_query_phase_assignments_aggregate(self):
        agent = Probe()
        with phase(Phase.QUERY):
            agent.total = 2.0
            agent.total = 3.0
            agent.best = 5.0
            agent.best = 1.0
        assert agent.total == 5.0
        assert agent.best == 1.0

    def test_reset_effects(self):
        agent = Probe()
        with phase(Phase.QUERY):
            agent.total = 2.0
        agent.reset_effects()
        assert agent.total == 0.0
        assert agent.touched_effect_partials() == {}

    def test_reset_effects_restores_every_identity(self):
        agent = Gatherer()
        with phase(Phase.QUERY):
            agent.total = 2.0
            agent.average = 4.0
            agent.seen = "a"
            agent.bag = "b"
        agent.reset_effects()
        fresh = Gatherer()
        assert agent.effect_partials() == fresh.effect_partials()
        assert list(agent.effect_partials()) == list(Gatherer._effect_fields)
        assert agent.touched_effect_partials() == {}

    def test_reset_effects_never_shares_a_mutable_identity(self):
        # Immutable identities come from one per-class template; a mutable
        # one must be made per agent, or one agent's accumulation would
        # leak into every other's.
        assert set(Gatherer._effect_identities) == {"total", "average", "seen"}
        first, second = Gatherer(), Gatherer()
        for _ in range(2):
            first.reset_effects()
            second.reset_effects()
            assert first._effects["bag"] is not second._effects["bag"]
            first._effects["bag"].append("leak")
            assert second._effects["bag"] == []
        previous = first._effects["bag"]
        first.reset_effects()
        assert first._effects["bag"] == [] and first._effects["bag"] is not previous

    def test_reset_effects_template_is_per_class(self):
        class Wider(Probe):
            extra = EffectField(MIN)

        assert set(Probe._effect_identities) == {"total", "best"}
        assert set(Wider._effect_identities) == {"total", "best", "extra"}
        agent = Wider()
        agent.set_effect_partials({"extra": 1.0})
        agent.reset_effects()
        assert agent.effect_partials() == {"total": 0.0, "best": float("inf"), "extra": float("inf")}

    def test_touched_partials_only_contains_assigned_fields(self):
        agent = Probe()
        with phase(Phase.QUERY):
            agent.total = 2.0
        assert set(agent.touched_effect_partials()) == {"total"}

    def test_merge_effect_partials_uses_combinator(self):
        agent = Probe()
        with phase(Phase.QUERY):
            agent.total = 2.0
            agent.best = 4.0
        agent.merge_effect_partials({"total": 3.0, "best": 1.0})
        assert agent.total == 5.0
        assert agent.best == 1.0

    def test_merge_unknown_field_rejected(self):
        agent = Probe()
        with pytest.raises(AgentDefinitionError):
            agent.merge_effect_partials({"nope": 1.0})


class TestCloningAndSnapshots:
    def test_clone_is_independent(self):
        agent = Probe(x=3.0)
        agent.agent_id = 7
        duplicate = agent.clone()
        duplicate.x = 9.0
        assert agent.x == 3.0
        assert duplicate.agent_id == 7

    def test_snapshot_restore_round_trip(self):
        agent = Probe(x=3.0, plain=2.0)
        agent.agent_id = 1
        snapshot = agent.snapshot()
        agent.x = 8.0
        agent.restore(snapshot)
        assert agent.x == 3.0
        assert agent.plain == 2.0

    def test_snapshot_deep_copies_mutable_values(self):
        agent = Gatherer(trail=[1, [2]])
        agent.agent_id = 1
        with phase(Phase.QUERY):
            agent.bag = "b"
            agent.average = 2.0
        snapshot = agent.snapshot()
        assert snapshot["state"] == {"x": 0.0, "trail": [1, [2]]}
        assert snapshot["effects"]["bag"] == ["b"]
        # Later mutation of the live agent cannot reach the snapshot ...
        agent._state["trail"][1].append(3)
        agent._effects["bag"].append("late")
        assert snapshot["state"]["trail"] == [1, [2]]
        assert snapshot["effects"]["bag"] == ["b"]
        # ... and a restored agent shares nothing mutable with it.
        other = Gatherer()
        other.restore(snapshot)
        assert other.state_dict() == {"x": 0.0, "trail": [1, [2]]}
        assert other.effect_partials() == snapshot["effects"]
        assert other._state is not snapshot["state"]
        assert other._effects is not snapshot["effects"]
        assert other._state["trail"] is not snapshot["state"]["trail"]
        assert other._state["trail"][1] is not snapshot["state"]["trail"][1]
        assert other._effects["bag"] is not snapshot["effects"]["bag"]
        other._state["trail"][1].append(4)
        other._effects["bag"].append("mine")
        assert snapshot["state"]["trail"] == [1, [2]]
        assert snapshot["effects"]["bag"] == ["b"]
        assert other.touched_effect_partials() == {}

    def test_same_state_as(self):
        first = Probe(x=1.0)
        second = Probe(x=1.0)
        first.agent_id = second.agent_id = 3
        assert first.same_state_as(second)
        second.set_state_dict({"x": 1.0 + 1e-12})
        assert not first.same_state_as(second)

    def test_same_state_as_different_ids(self):
        first, second = Probe(), Probe()
        first.agent_id, second.agent_id = 1, 2
        assert not first.same_state_as(second)

    def test_state_dict_round_trip(self):
        agent = Probe()
        agent.set_state_dict({"x": 4.0})
        assert agent.state_dict()["x"] == 4.0
        with pytest.raises(AgentDefinitionError):
            agent.set_state_dict({"bogus": 1.0})

    def test_approximate_size_is_positive(self):
        assert Probe().approximate_size_bytes() > 0

    def test_iteration_yields_state_items(self):
        agent = Probe(x=3.0)
        assert dict(iter(agent))["x"] == 3.0

    def test_boid_fixture_class_is_well_formed(self):
        boid = Boid(x=1.0, y=2.0)
        assert boid.position() == (1.0, 2.0)
        assert boid.has_bounded_visibility()
