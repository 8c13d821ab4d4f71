"""Refresh groups round-trip: a destination's replicas mirror their source.

A :class:`~repro.ipc.frames.ReplicaDelta` refreshes the rows a destination
already holds with only their changed cells, grouped by ``(class, changed
cells)``.  Hypothesis drives one source shard through ticks of adversarial
rewrites — NaN payloads, ±0.0, ints past 2**53, bools, escape cells, lists
changed in place, cells rewritten with equal-but-distinct objects,
``_state`` dicts reordered — and after every tick ships its delta through the
real codec (pickled, routed, pickled again) into a destination shard.  The
destination's replicas must then equal the source's agents exactly, and a
row whose ``_state`` keys left the declared order must never ride a refresh.
"""

import pickle
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.brace.shards import _pack_routed_deltas, _unpack_routed_deltas
from repro.brace.worker import ShardSettings, Worker
from repro.core.agent import Agent
from repro.core.fields import StateField
from repro.core.soa import states_equal
from repro.ipc.frames import ColumnarCodec
from repro.spatial.bbox import BBox
from repro.spatial.partitioning import StripPartitioning

from tests.ipc.test_frames import any_cell, exact_floats


class Wide(Agent):
    """Replicated everywhere; four payload fields of any kind."""

    x = StateField(0.0, spatial=True, visibility=None)
    y = StateField(0.0, spatial=True, visibility=None)
    a = StateField(0.0)
    b = StateField(0.0)
    c = StateField(0)
    log = StateField(())


class Narrow(Agent):
    """A second class, so refresh groups split by class too."""

    x = StateField(0.0, spatial=True, visibility=None)
    y = StateField(0.0, spatial=True, visibility=None)
    a = StateField(0.0)


PAYLOAD = ("a", "b", "c", "log")
NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_0000_BEEF))[0]
cells = any_cell | st.sampled_from([NAN_PAYLOAD, 1, 1.0, True, 0.0, -0.0]) | st.lists(
    exact_floats, max_size=3
)


def distinct_twin(value):
    """An equal value that is a different object (same bits for a float)."""
    if type(value) is float:
        return struct.unpack("<d", struct.pack("<d", value))[0]
    if type(value) is list:
        return list(value)
    return pickle.loads(pickle.dumps(value))


def flipped(value):
    """-0.0 ↔ 0.0 for a float, 1 ↔ 1.0 otherwise: equal under ``==``, not the same cell."""
    if type(value) is float:
        return 0.0 if struct.pack("<d", value) == struct.pack("<d", -0.0) else -0.0
    return 1.0 if value == 1 and type(value) is int else 1


def apply_op(agent, op) -> None:
    kind, field, value = op
    state = agent._state
    if field not in state:
        return  # a Narrow has no such field
    if kind == "set":
        state[field] = value
    elif kind == "twin":
        state[field] = distinct_twin(state[field])
    elif kind == "flip":
        state[field] = flipped(state[field])
    elif kind == "append":
        if type(state[field]) is list:
            state[field].append(value)  # in place: same object, new content
        else:
            state[field] = [value]
    elif kind == "reorder":
        state[field] = state.pop(field)  # the key moves to the end
    elif kind == "move":
        state["x"] = 1.0 + len(repr(value)) % 28  # stays in the source's strip


ops = st.tuples(
    st.sampled_from(["set", "twin", "flip", "append", "reorder", "move"]),
    st.sampled_from(PAYLOAD),
    cells,
)


def make_shards(kinds):
    partitioning = StripPartitioning.uniform(BBox(((0.0, 60.0), (0.0, 60.0))), 0, 2)
    source = Worker(
        0,
        partitioning.partition(0),
        partitioning=partitioning,
        settings=ShardSettings(transport_copies=True),
    )
    destination = Worker(1, partitioning.partition(1), partitioning=partitioning)
    for agent_id, kind in enumerate(kinds):
        if kind:
            agent = Wide(agent_id=agent_id, x=1.0 + agent_id, y=5.0, log=[0.5])
        else:
            agent = Narrow(agent_id=agent_id, x=1.0 + agent_id, y=5.0)
        source.add_owned(agent)
    return source, destination


def ship(source, destination, codec) -> dict:
    """One tick's map phase, carried to the destination as the wire would."""
    result = source.distribute()
    refreshed = {
        agent_id
        for delta in result.replicas_out.values()
        for ids, _ in delta.refreshes.values()
        for agent_id in ids
    }
    decoded = codec.decode(codec.encode(result))
    deltas = [decoded.replicas_out[1]] if 1 in decoded.replicas_out else []
    routed = pickle.loads(pickle.dumps(_pack_routed_deltas(deltas), codec.protocol))
    destination.apply_replica_deltas(_unpack_routed_deltas(routed))
    return refreshed


def mirror_of(worker) -> dict:
    return {agent_id: agent.state_dict() for agent_id, agent in worker.replicas.items()}


@given(
    kinds=st.lists(st.booleans(), min_size=1, max_size=5),
    ticks=st.lists(
        st.lists(st.tuples(st.integers(0, 4), ops), max_size=6), min_size=1, max_size=5
    ),
)
@settings(max_examples=60, deadline=None)
def test_destination_replicas_mirror_the_source_exactly(kinds, ticks):
    source, destination = make_shards(kinds)
    codec = ColumnarCodec()
    ship(source, destination, codec)
    for tick_ops in ticks:
        agents = source.owned_agents()
        for index, op in tick_ops:
            apply_op(agents[index % len(agents)], op)
        refreshed = ship(source, destination, codec)
        owned = {agent.agent_id: agent.state_dict() for agent in agents}
        assert states_equal(mirror_of(destination), owned)
        for agent_id in refreshed:
            agent = source.owned[agent_id]
            assert tuple(agent._state) == tuple(type(agent)._state_fields)
        for agent_id, replica in destination.replicas.items():
            assert type(replica) is type(source.owned[agent_id])
