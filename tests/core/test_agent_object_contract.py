"""The agent-object contract the interpreter path relies on.

An agent's state dict is both its ``_state`` slot and its instance
``__dict__`` (one object), so ``agent.x`` is a plain attribute load; every
write passes through ``Agent.__setattr__``.  These tests pin both halves:

* every phase rule still raises :class:`PhaseViolationError` with its exact
  message, the reachability clamp still applies, and ``set_enforcement``
  still switches off exactly the checks it always did;
* after every way an agent is built or refilled — construction, ``clone``,
  ``restore``, ``set_state_dict``, pickle protocols 2–5 (hand-written and
  compiled classes), frame decoding and in-place replica refreshes — the
  state dict *is* ``vars(agent)``, keyed by the declared fields in order.
"""

import pickle

import pytest

from repro.brasil.compiler import compile_script
from repro.core.agent import Agent
from repro.core.combinators import MEAN, SUM
from repro.core.errors import PhaseViolationError
from repro.core.fields import EffectField, StateField
from repro.core.phase import Phase, phase, set_enforcement
from repro.ipc.frames import pack_agents, pack_refreshes, refresh_replicas, unpack_agents
from repro.simulations.predator.brasil_scripts import FISH_SCHOOL_SCRIPT


class Walker(Agent):
    """Two clamped spatial fields, a plain field, two effect fields."""

    x = StateField(1.0, spatial=True, visibility=4.0, reachability=1.0)
    y = StateField(2.0, spatial=True, visibility=4.0, reachability=1.0)
    label = StateField("w")
    push = EffectField(SUM)
    mean = EffectField(MEAN)


FIELDS = ["x", "y", "label"]
COMPILED = compile_script(FISH_SCHOOL_SCRIPT).agent_class


@pytest.fixture
def enforcement_off():
    set_enforcement(False)
    try:
        yield
    finally:
        set_enforcement(True)


def updating(agent):
    """Mark ``agent`` as the one being updated, as the tick loops do."""
    object.__setattr__(agent, "_updating", True)
    return agent


# ----------------------------------------------------------------------
# Phase rules, with their messages
# ----------------------------------------------------------------------
def test_state_write_in_query_raises():
    agent = Walker(agent_id=1)
    with phase(Phase.QUERY), pytest.raises(PhaseViolationError) as error:
        agent.x = 3.0
    assert str(error.value) == (
        "state field 'x' written during the query phase; "
        "state is read-only while effects are being computed"
    )
    assert agent.x == 1.0


def test_write_to_another_agent_in_update_raises():
    agent = Walker(agent_id=5)
    with phase(Phase.UPDATE), pytest.raises(PhaseViolationError) as error:
        agent.label = "other"
    assert str(error.value) == (
        "state field 'label' of agent 5 written during another agent's update "
        "phase; agents may only update their own state"
    )
    assert agent.label == "w"


def test_effect_read_in_query_raises():
    agent = Walker(agent_id=1)
    with phase(Phase.QUERY), pytest.raises(PhaseViolationError) as error:
        agent.push
    assert str(error.value) == (
        "effect field 'push' read during the query phase; "
        "effects are write-only until the update phase"
    )


def test_effect_write_in_update_raises():
    agent = updating(Walker(agent_id=1))
    with phase(Phase.UPDATE), pytest.raises(PhaseViolationError) as error:
        agent.push = 1.0
    assert str(error.value) == (
        "effect field 'push' written during the update phase; "
        "effects may only be assigned in the query phase"
    )


def test_query_writes_aggregate_and_update_reads_finalize():
    agent = Walker(agent_id=1)
    with phase(Phase.QUERY):
        agent.push = 1.5
        agent.push = 2.0
        agent.mean = 1.0
        agent.mean = 4.0
    assert agent._effects_touched == {"push", "mean"}
    with phase(Phase.UPDATE):
        assert (agent.push, agent.mean) == (3.5, 2.5)


def test_reachability_clamp_in_own_update():
    agent = updating(Walker(agent_id=1, x=10.0))
    with phase(Phase.UPDATE):
        agent.x = 25.0
        agent.y = -5.0
        agent.label = "moved"
    assert (agent.x, agent.y, agent.label) == (11.0, 1.0, "moved")
    # No clamp outside the update phase.
    agent.x = 25.0
    assert agent.x == 25.0


def test_disabled_enforcement_lifts_exactly_the_checks(enforcement_off):
    agent = Walker(agent_id=1, x=10.0)
    with phase(Phase.QUERY):
        agent.x = 30.0  # allowed, and not clamped outside the update phase
        agent.push = 2.0  # still aggregated
        agent.push = 2.0
        assert agent.push == 4.0  # readable
    assert agent.x == 30.0
    with phase(Phase.UPDATE):
        agent.x = 50.0  # another agent's field: allowed, but still clamped
        agent.push = 7.0  # a raw assignment, as in the idle phase
    assert (agent.x, agent._effects["push"]) == (31.0, 7.0)


# ----------------------------------------------------------------------
# The state dict is the instance dict
# ----------------------------------------------------------------------
def assert_state_is_instance_dict(agent, fields=FIELDS):
    assert agent._state is vars(agent)
    assert list(vars(agent)) == list(fields)
    assert agent._updating is False


def populated():
    agent = Walker(agent_id=4, x=2.5, label="p")
    agent.push = 1.0
    return agent


def test_construction():
    assert_state_is_instance_dict(Walker())
    assert_state_is_instance_dict(Walker(agent_id=3, label="k", x=0.5))


def test_clone():
    original = populated()
    duplicate = original.clone()
    assert_state_is_instance_dict(duplicate)
    assert duplicate._state is not original._state
    assert duplicate.same_state_as(original)


def test_restore_and_set_state_dict():
    agent = Walker(agent_id=9)
    agent.restore(populated().snapshot())
    assert_state_is_instance_dict(agent)
    assert (agent.agent_id, agent.x, agent.label) == (4, 2.5, "p")
    agent.set_state_dict({"label": "q", "y": 7.0})
    assert_state_is_instance_dict(agent)
    assert (agent.y, agent.label) == (7.0, "q")


def test_assigning_state_rebinds_the_instance_dict():
    agent = Walker(agent_id=1)
    replacement = {"x": 5.0, "y": 6.0, "label": "r"}
    agent._state = replacement
    assert agent._state is replacement and vars(agent) is replacement
    assert agent.x == 5.0


@pytest.mark.parametrize("protocol", [2, 3, 4, 5])
def test_pickle_hand_written(protocol):
    original = populated()
    restored = pickle.loads(pickle.dumps(original, protocol))
    assert_state_is_instance_dict(restored)
    assert restored.same_state_as(original)
    assert restored._effects == original._effects
    assert restored._effects_touched == original._effects_touched


@pytest.mark.parametrize("protocol", [2, 3, 4, 5])
def test_pickle_compiled(protocol):
    original = COMPILED(agent_id=2, x=1.0, y=-1.0, vx=0.5, vy=0.25)
    restored = pickle.loads(pickle.dumps(original, protocol))
    assert type(restored) is COMPILED
    assert_state_is_instance_dict(restored, COMPILED._state_fields)
    assert restored.same_state_as(original)


def test_unpack_agents():
    agents = [populated(), Walker(agent_id=8, y=3.0), COMPILED(agent_id=9, x=4.0)]
    decoded = unpack_agents(pack_agents(agents))
    for original, agent in zip(agents, decoded):
        assert_state_is_instance_dict(agent, type(original)._state_fields)
        assert agent.same_state_as(original)
        assert agent._effects == original._effects


def test_refresh_replicas():
    replicas = {5: Walker(agent_id=5), 6: Walker(agent_id=6)}
    values = [(9.0, 2.0, "a"), (8.0, 2.0, "b")]
    refresh_replicas(pack_refreshes({(Walker, (0, 2)): ([5, 6], values)}), replicas)
    for (agent_id, agent), (x, _, label) in zip(replicas.items(), values):
        assert_state_is_instance_dict(agent)
        assert (agent.agent_id, agent.x, agent.label) == (agent_id, x, label)
