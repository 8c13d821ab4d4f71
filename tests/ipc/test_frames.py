"""Round-trip conformance of the columnar frame codec.

The wire format's whole contract is one sentence: decoding an encoded
payload restores **bit-identical** Python values — NaN payloads, signed
zeros, exact ints past 2**53, bools that stay bools, agents with escape
states, empty frames.  Hypothesis drives the cell-level properties over
adversarial value mixes; the directed tests pin the boundary cases the
strategies are built around.
"""

import pickle
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.combinators import Combinator
from repro.core.fields import EffectField
from repro.core.soa import pack_cells, unpack_cells
from repro.ipc.frames import (
    ColumnarCodec,
    pack_agents,
    pack_mapping_rows,
    unpack_agents,
    unpack_mapping_rows,
)
from tests.conftest import Boid
from tests.wire_double import roundtrip


def bits(value: float) -> int:
    """The raw IEEE-754 bit pattern (NaN payloads and zero signs included)."""
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def cells_bit_identical(a, b) -> bool:
    """Exact equality: same type, and for floats the same 64 bits."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return bits(a) == bits(b)
    return a == b


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------

#: Floats including NaN, infinities and both zeros — bit patterns matter.
exact_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 2.0**-1074]
)

#: Ints spanning the float53 and int64 boundaries, including values no
#: float64 (2**53 + 1) and no int64 (±2**63) can carry.
exact_ints = st.integers(-(2**70), 2**70) | st.sampled_from(
    [2**53, 2**53 + 1, -(2**53) - 1, 2**63 - 1, -(2**63), 2**63, 2**100]
)

#: Cells the codec must escape: strings, tuples, None.
escape_cells = st.text(max_size=5) | st.tuples(st.integers()) | st.none()

any_cell = exact_floats | exact_ints | st.booleans() | escape_cells


class TestPackCells:
    @given(st.lists(any_cell, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_is_bit_identical(self, values):
        restored = unpack_cells(pack_cells(values))
        assert len(restored) == len(values)
        for original, decoded in zip(values, restored):
            assert cells_bit_identical(original, decoded), (original, decoded)

    @given(st.lists(any_cell, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_survives_pickle(self, values):
        # The wire shell is pickled; the column must decode identically on
        # the far side of the boundary.
        column = pickle.loads(pickle.dumps(pack_cells(values)))
        for original, decoded in zip(values, unpack_cells(column)):
            assert cells_bit_identical(original, decoded)

    @given(st.lists(exact_floats, min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_homogeneous_floats_take_array_fast_path(self, values):
        column = pack_cells(values)
        assert column.kind == "f"
        assert column.data.dtype == np.float64
        for original, decoded in zip(values, unpack_cells(column)):
            assert cells_bit_identical(original, decoded)

    def test_nan_payload_and_signed_zero_survive(self):
        weird_nan = struct.unpack("<d", struct.pack("<Q", 0x7FF8DEADBEEF0001))[0]
        values = [weird_nan, -0.0, 0.0, float("inf")]
        decoded = unpack_cells(pack_cells(values))
        assert [bits(v) for v in decoded] == [bits(v) for v in values]

    def test_int64_boundaries_pack_exact(self):
        values = [2**53 + 1, 2**63 - 1, -(2**63)]
        column = pack_cells(values)
        assert column.kind == "i"
        assert unpack_cells(column) == values

    def test_int_outside_int64_escapes(self):
        values = [1, 2**63, -1]
        column = pack_cells(values)
        assert column.kind == "m"
        decoded = unpack_cells(column)
        assert decoded == values
        assert all(type(v) is int for v in decoded)

    def test_bools_stay_bools(self):
        values = [True, False, True]
        column = pack_cells(values)
        assert column.kind == "b"
        decoded = unpack_cells(column)
        assert decoded == values
        assert all(type(v) is bool for v in decoded)

    def test_mixed_bool_and_int_keep_types(self):
        # bool is an int subclass; a mixed column must not collapse them.
        values = [True, 1, False, 0]
        decoded = unpack_cells(pack_cells(values))
        assert [type(v) for v in decoded] == [bool, int, bool, int]

    def test_empty_column(self):
        column = pack_cells([])
        assert len(column) == 0
        assert unpack_cells(column) == []


# ----------------------------------------------------------------------
# Agent frames
# ----------------------------------------------------------------------


class OtherBoid(Boid):
    """A second concrete class so frames carry multiple groups."""


#: A combinator whose identity is a *mutable* list — exercises the slow
#: fresh-effects path (the built-ins all have immutable identities).
GATHER = Combinator("gather-ipc-test", list, lambda acc, value: acc + [value])


class CollectingAgent(Boid):
    """Mutable effect identity — the slow per-agent template path."""

    sightings = EffectField(GATHER)


def make_boid(agent_id, cls=Boid, **state):
    agent = cls(agent_id=agent_id)
    for name, value in state.items():
        agent._state[name] = value
    return agent


def assert_agents_bit_identical(original, decoded):
    assert len(original) == len(decoded)
    for a, b in zip(original, decoded):
        assert type(a) is type(b)
        assert a.agent_id == b.agent_id
        assert a._state.keys() == b._state.keys()
        for name in a._state:
            assert cells_bit_identical(a._state[name], b._state[name]), name
        assert a._effects_touched == b._effects_touched
        assert a._effects.keys() == b._effects.keys()
        for name in a._effects:
            assert cells_bit_identical(a._effects[name], b._effects[name]) or (
                a._effects[name] == b._effects[name]
            ), name


agent_states = st.fixed_dictionaries(
    {
        "x": exact_floats,
        "y": exact_floats,
        "vx": exact_floats,
        "vy": exact_floats,
    }
)


class TestAgentFrames:
    @given(st.lists(agent_states, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_state_bit_identical(self, states):
        agents = [make_boid(i, **state) for i, state in enumerate(states)]
        decoded = unpack_agents(pickle.loads(pickle.dumps(pack_agents(agents))))
        assert_agents_bit_identical(agents, decoded)

    def test_decoded_agents_are_fresh_objects(self):
        agents = [make_boid(0, x=1.5)]
        decoded = unpack_agents(pack_agents(agents))
        assert decoded[0] is not agents[0]
        assert decoded[0]._state is not agents[0]._state
        assert decoded[0]._effects is not agents[0]._effects

    def test_interleaved_classes_preserve_order(self):
        agents = [
            make_boid(i, cls=(Boid if i % 2 == 0 else OtherBoid), x=float(i))
            for i in range(9)
        ]
        decoded = unpack_agents(pack_agents(agents))
        assert_agents_bit_identical(agents, decoded)

    def test_touched_effects_ship_as_overrides(self):
        quiet = make_boid(0)
        loud = make_boid(1)
        loud.set_effect_partials({"pull_x": -0.0, "neighbor_count": 3})
        decoded = unpack_agents(pack_agents([quiet, loud]))
        assert decoded[0]._effects_touched == set()
        assert decoded[1]._effects_touched == {"pull_x", "neighbor_count"}
        assert bits(decoded[1]._effects["pull_x"]) == bits(-0.0)
        assert decoded[1]._effects["neighbor_count"] == 3

    def test_untouched_nondefault_effects_still_ship(self):
        # A checkpoint-restored accumulator can differ from the identity
        # without being in _effects_touched; skipping it would flip bits.
        agent = make_boid(0)
        agent._effects["pull_x"] = -0.0  # identity is 0.0 — differs by sign bit
        decoded = unpack_agents(pack_agents([agent]))
        assert bits(decoded[0]._effects["pull_x"]) == bits(-0.0)

    def test_mutable_effect_identities_are_not_shared(self):
        agents = [CollectingAgent(agent_id=0), CollectingAgent(agent_id=1)]
        decoded = unpack_agents(pack_agents(agents))
        assert decoded[0]._effects["sightings"] == []
        decoded[0]._effects["sightings"].append("seen")
        assert decoded[1]._effects["sightings"] == []

    def test_divergent_state_keys_take_escape_path(self):
        normal = make_boid(0, x=1.0)
        weird = make_boid(1)
        weird._state["extra"] = "not-a-declared-field"
        frame = pack_agents([normal, weird])
        assert len(frame.escapes) == 1
        decoded = unpack_agents(frame)
        assert decoded[1]._state["extra"] == "not-a-declared-field"
        assert decoded[0].agent_id == 0 and decoded[1].agent_id == 1

    def test_empty_frame(self):
        frame = pack_agents([])
        assert frame.length == 0
        assert unpack_agents(frame) == []

    def test_tuple_agent_ids_roundtrip(self):
        # Spawned agents get (parent, sequence) tuple ids.
        agents = [make_boid((7, 0)), make_boid(3)]
        decoded = unpack_agents(pack_agents(agents))
        assert [a.agent_id for a in decoded] == [(7, 0), 3]


# ----------------------------------------------------------------------
# Mapping frames (effect-partial rows)
# ----------------------------------------------------------------------

partial_rows = st.lists(
    st.tuples(
        st.integers(0, 2**40),
        st.dictionaries(
            st.sampled_from(["pull_x", "pull_y", "count", "hurt"]),
            exact_floats | exact_ints,
            max_size=4,
        ),
    ),
    max_size=20,
)


class TestMappingFrames:
    @given(partial_rows)
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_bit_identical(self, rows):
        frame = pickle.loads(pickle.dumps(pack_mapping_rows(rows)))
        decoded = unpack_mapping_rows(frame)
        assert len(decoded) == len(rows)
        for (key, mapping), (dkey, dmapping) in zip(rows, decoded):
            assert key == dkey
            assert mapping.keys() == dmapping.keys()
            for name in mapping:
                assert cells_bit_identical(mapping[name], dmapping[name])

    def test_heterogeneous_signatures_group_separately(self):
        rows = [
            (0, {"pull_x": 1.0}),
            (1, {"pull_x": 2.0, "pull_y": 3.0}),
            (2, {"pull_x": 4.0}),
        ]
        decoded = unpack_mapping_rows(pack_mapping_rows(rows))
        assert decoded == rows

    def test_empty(self):
        assert unpack_mapping_rows(pack_mapping_rows([])) == []


# ----------------------------------------------------------------------
# The codec shell
# ----------------------------------------------------------------------


class TestColumnarCodec:
    def test_unregistered_objects_pass_through_raw(self):
        codec = ColumnarCodec()
        payload = {"anything": [1, "two", 3.0]}
        assert codec.decode(codec.encode(payload)) == payload

    def test_agent_lists_frame_structurally(self):
        codec = ColumnarCodec()
        agents = [make_boid(i, x=float(i)) for i in range(5)]
        decoded = codec.decode(codec.encode(agents))
        assert_agents_bit_identical(agents, decoded)

    def test_wire_double_reports_real_bytes_for_picklable_payloads(self):
        decoded, nbytes = roundtrip([make_boid(i) for i in range(3)])
        assert nbytes > 0
        assert len(decoded) == 3

    def test_wire_double_degrades_for_unpicklable_classes(self):
        class Local(Boid):  # not importable by name -> unpicklable
            pass

        agents = [Local(agent_id=0)]
        decoded, nbytes = roundtrip(agents)
        assert nbytes == 0
        assert type(decoded[0]) is Local
        assert decoded[0] is not agents[0]
