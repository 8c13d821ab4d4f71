"""Edge cases of the structure-of-arrays bridge (:mod:`repro.core.soa`).

The plan kernels only stay bit-identical to the interpreter if the
pack → compute → writeback round trip is lossless in every corner: NaN and
signed zeros, int/bool fields, agents born or killed between pack and
writeback, empty shards, and integers a float64 cannot represent (the
far-origin overflow case, mirroring the partitioning property tests).
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.agent import Agent
from repro.core.fields import StateField
from repro.core.soa import AgentTable, UnpackableValueError, pack_column, pack_value


class Particle(Agent):
    x = StateField(default=0.0, spatial=True, visibility=2.0)
    y = StateField(default=0.0, spatial=True, visibility=2.0)
    w = StateField(default=0.0)


def make_particles(values):
    return [Particle(x=float(i), y=-float(i), w=w) for i, w in enumerate(values)]


class TestPackValue:
    def test_floats_pass_through_verbatim(self):
        for value in (0.0, -0.0, 1.5, float("inf"), float("-inf")):
            packed = pack_value(value)
            assert packed == value
            assert math.copysign(1.0, packed) == math.copysign(1.0, value)
        assert math.isnan(pack_value(float("nan")))

    def test_bools_pack_as_indicator(self):
        assert pack_value(True) == 1.0
        assert pack_value(False) == 0.0

    def test_exact_ints_pack(self):
        assert pack_value(7) == 7.0
        assert pack_value(2**53) == float(2**53)
        assert pack_value(-(2**53)) == -float(2**53)

    def test_far_origin_int_overflow_raises(self):
        # 2**53 + 1 is the first integer float64 silently rounds — packing
        # it would corrupt a far-origin position, so it must raise instead.
        with pytest.raises(UnpackableValueError):
            pack_value(2**53 + 1)
        with pytest.raises(UnpackableValueError):
            pack_value(10**400)  # OverflowError path

    def test_unpackable_types_raise(self):
        for value in (None, "x", (1.0, 2.0), [1.0]):
            with pytest.raises(UnpackableValueError):
                pack_value(value)

    @settings(max_examples=120, deadline=None)
    @given(st.integers())
    def test_int_round_trip_is_lossless_or_refused(self, value):
        try:
            packed = pack_value(value)
        except UnpackableValueError:
            # Refusal is only allowed when float64 genuinely cannot hold it.
            try:
                assert int(float(value)) != value
            except OverflowError:
                pass
            return
        assert int(packed) == value


class TestAgentTable:
    def test_packs_declared_fields_in_order(self):
        table = AgentTable(make_particles([0.5, 1.5]))
        assert table.field_names == ["x", "y", "w"]
        assert list(table.column("w")) == [0.5, 1.5]
        assert len(table) == 2

    def test_zero_agent_shard(self):
        table = AgentTable([], field_names=["x", "y"])
        assert len(table) == 0
        assert table.column("x").shape == (0,)
        table.set_column("x", np.zeros(0))
        table.writeback()  # a no-op, not a crash

    def test_untouched_columns_are_not_written(self):
        agents = make_particles([1.0])
        table = AgentTable(agents)
        sentinel = object()
        agents[0]._state["y"] = sentinel  # mutate behind the table's back
        table.set_column("x", table.column("x") + 1.0)
        table.writeback()
        # Only the dirty column moved; the clean one was left alone even
        # though its packed copy no longer matches the live object.
        assert agents[0]._state["y"] is sentinel
        assert agents[0].x == 1.0

    def test_unchanged_cells_restore_original_objects(self):
        nan = float("nan")
        agents = [Particle(x=0.0, y=0.0, w=nan), Particle(x=1.0, y=0.0, w=2.5)]
        table = AgentTable(agents)
        column = table.column("w").copy()
        column[1] = 3.5
        table.set_column("w", column)
        table.writeback()
        # Row 0's NaN never changed: the *same object* comes back.
        assert agents[0]._state["w"] is nan
        assert agents[1].w == 3.5

    def test_int_and_bool_fields_survive_unchanged(self):
        agents = [Particle(x=0.0, y=0.0, w=0.0)]
        agents[0]._state["w"] = 7  # interpreter-style int-typed state
        table = AgentTable(agents)
        table.mark_dirty("w")
        table.writeback()
        value = agents[0]._state["w"]
        assert value == 7 and type(value) is int

    def test_signed_zero_flip_is_a_real_write(self):
        agents = [Particle(x=0.0, y=0.0, w=-0.0)]
        table = AgentTable(agents)
        table.set_column("w", np.array([0.0]))
        table.writeback()
        assert math.copysign(1.0, agents[0]._state["w"]) == 1.0

    def test_nan_payload_change_is_a_real_write(self):
        quiet = float("nan")
        (tagged,) = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))
        agents = make_particles([quiet, quiet])
        table = AgentTable(agents)
        table.set_column("w", np.array([tagged, quiet]))
        table.writeback()
        written = agents[0]._state["w"]
        assert struct.pack("<d", written) == struct.pack("<d", tagged)
        assert agents[1]._state["w"] is quiet  # same payload: never rewritten

    def test_only_changed_rows_are_written(self):
        class CountingState(dict):
            writes = 0

            def __setitem__(self, name, value):
                self.writes += 1
                super().__setitem__(name, value)

        agents = make_particles([1.0, -0.0, 3.0])
        for agent in agents:
            agent._state = CountingState(agent._state)
        table = AgentTable(agents)
        # A strided (non-contiguous) column that flips row 1's zero sign.
        table.set_column("w", np.array([1.0, 9.0, 0.0, 9.0, 3.0])[::2])
        table.writeback()
        assert [agent._state.writes for agent in agents] == [0, 1, 0]
        assert math.copysign(1.0, agents[1]._state["w"]) == 1.0

    def test_nan_and_inf_round_trip(self):
        values = [float("nan"), float("inf"), float("-inf"), -0.0]
        agents = make_particles(values)
        table = AgentTable(agents)
        table.set_column("w", table.column("w"))
        table.writeback()
        for agent, value in zip(agents, values):
            got = agent._state["w"]
            if math.isnan(value):
                assert math.isnan(got)
            else:
                assert got == value
                assert math.copysign(1.0, got) == math.copysign(1.0, value)

    def test_far_origin_position_refuses_to_pack(self):
        agents = [Particle(x=0.0, y=0.0, w=0.0)]
        agents[0]._state["x"] = 2**60 + 1  # beyond exact float64 range
        with pytest.raises(UnpackableValueError):
            AgentTable(agents)

    def test_births_between_pack_and_writeback_do_not_shift_rows(self):
        agents = make_particles([1.0, 2.0])
        table = AgentTable(agents)
        born = Particle(x=9.0, y=9.0, w=9.0)  # arrives after the snapshot
        table.set_column("w", table.column("w") * 2.0)
        table.writeback()
        assert [a.w for a in agents] == [2.0, 4.0]
        assert born.w == 9.0  # never in the table, never touched

    def test_deaths_between_pack_and_writeback_are_harmless(self):
        agents = make_particles([1.0, 2.0, 3.0])
        table = AgentTable(agents)
        dead = agents.pop(1)  # "killed": dropped from the live set
        table.set_column("w", table.column("w") + 10.0)
        table.writeback()
        # Writeback goes through captured references, so the survivors get
        # their rows and the dead object is updated in isolation (harmless:
        # nothing references it).
        assert [a.w for a in agents] == [11.0, 13.0]
        assert dead.w == 12.0

    def test_row_of_is_identity_keyed(self):
        twin_a = Particle(x=1.0, y=1.0, w=1.0)
        twin_b = Particle(x=1.0, y=1.0, w=1.0)
        table = AgentTable([twin_a, twin_b])
        assert table.row_of(twin_a) == 0
        assert table.row_of(twin_b) == 1

    def test_shape_mismatch_rejected(self):
        table = AgentTable(make_particles([1.0, 2.0]))
        with pytest.raises(ValueError, match="shape"):
            table.set_column("w", np.zeros(3))
        with pytest.raises(KeyError):
            table.mark_dirty("nope")

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=True, allow_infinity=True, width=64),
            min_size=1,
            max_size=8,
        )
    )
    def test_identity_writeback_is_a_no_op(self, values):
        agents = make_particles(values)
        table = AgentTable(agents)
        before = [a._state["w"] for a in agents]
        table.mark_dirty("w")
        table.writeback()
        after = [a._state["w"] for a in agents]
        # Bit-identical and object-identical: packing cost nothing.
        assert all(x is y for x, y in zip(before, after))

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.floats(allow_nan=True, allow_infinity=True, width=64), min_size=1, max_size=8),
        st.floats(allow_nan=True, allow_infinity=True, width=64),
    )
    def test_written_cells_match_python_float_semantics(self, values, replacement):
        agents = make_particles(values)
        table = AgentTable(agents)
        column = table.column("w").copy()
        column[0] = replacement
        table.set_column("w", column)
        table.writeback()
        got = agents[0]._state["w"]
        assert type(got) is float
        if math.isnan(replacement):
            assert math.isnan(got)
        else:
            assert got == replacement
            assert math.copysign(1.0, got) == math.copysign(1.0, replacement)
