"""Replica delta shipping: ship only what the destination doesn't hold.

Over a copying transport (``ShardSettings(transport_copies=True)``) every
destination retains last tick's replicas and the source ships a
:class:`~repro.ipc.frames.ReplicaDelta` in three parts: additions (whole
rows the destination does not hold), refreshes (the changed cells of rows
it does hold) and removals.  "Changed" is decided by *object identity* of
each state value against what was last sent — never by ``==`` (which would
conflate NaNs and signed zeros) — and a cell holding a mutable value is
re-shipped every tick.  These tests pin the protocol's invariants; the
end-to-end equivalence suites prove the whole runtime stays bit-identical
across transports.
"""

import math

import pytest

from repro.brace.shards import (
    _lazy_replica_deltas,
    _pack_replica_deltas,
    _pack_routed_deltas,
    _unpack_routed_deltas,
)
from repro.brace.worker import ShardSettings, Worker
from repro.core.agent import Agent
from repro.core.errors import BraceError
from repro.core.fields import StateField
from repro.ipc.frames import LazyAgentFrame, ReplicaDelta
from repro.spatial.bbox import BBox
from repro.spatial.partitioning import StripPartitioning

from tests.conftest import Boid


def make_worker(worker_id=0, partitions=2, width=60.0, transport_copies=True):
    partitioning = StripPartitioning.uniform(
        BBox(((0.0, width), (0.0, width))), 0, partitions
    )
    settings = ShardSettings(transport_copies=transport_copies)
    return Worker(worker_id, partitioning.partition(worker_id), settings=settings), partitioning


def distribute(worker, partitioning):
    return worker.distribute(partitioning)


def refreshed(delta):
    """``{agent_id: (field names, cells)}`` of a source-side delta's refreshes."""
    rows = {}
    for (cls, cells), (ids, value_rows) in delta.refreshes.items():
        names = tuple(cls._state_fields)
        for agent_id, values in zip(ids, value_rows):
            rows[agent_id] = (tuple(names[i] for i in cells), tuple(values[i] for i in cells))
    return rows


def over_the_wire(deltas):
    """The deltas as a destination receives them."""
    return _unpack_routed_deltas(_pack_routed_deltas(deltas))


class Logger(Agent):
    """Keeps a list in its state and appends to it in place."""

    x = StateField(0.0, spatial=True, visibility=10.0)
    y = StateField(0.0, spatial=True, visibility=10.0)
    hist = StateField(())


class TestDeltaDistribute:
    def test_first_tick_ships_everything(self):
        worker, partitioning = make_worker()
        worker.add_owned(Boid(agent_id=1, x=29.0, y=5.0))  # visible across 30.0
        result = distribute(worker, partitioning)
        delta = result.replicas_out[1]
        assert isinstance(delta, ReplicaDelta)
        assert [a.agent_id for a in delta.additions] == [1]
        assert delta.removed_ids == []

    def test_unchanged_agent_ships_nothing(self):
        worker, partitioning = make_worker()
        worker.add_owned(Boid(agent_id=1, x=29.0, y=5.0))
        distribute(worker, partitioning)
        result = distribute(worker, partitioning)
        assert result.replicas_out == {}

    def test_changed_field_triggers_resend(self):
        worker, partitioning = make_worker()
        agent = Boid(agent_id=1, x=29.0, y=5.0)
        worker.add_owned(agent)
        distribute(worker, partitioning)
        agent._state["vx"] = 3.5  # new object -> identity check must fire
        result = distribute(worker, partitioning)
        delta = result.replicas_out[1]
        # The destination holds the row: only the rewritten cell ships.
        assert delta.additions == [] and delta.removed_ids == []
        assert refreshed(delta) == {1: (("vx",), (3.5,))}

    def test_every_cell_changed_refreshes_the_whole_row(self):
        worker, partitioning = make_worker()
        agent = Boid(agent_id=1, x=29.0, y=5.0)
        worker.add_owned(agent)
        distribute(worker, partitioning)
        agent._state.update(x=29.5, y=6.0, vx=1.0, vy=2.0)
        delta = distribute(worker, partitioning).replicas_out[1]
        assert delta.additions == []
        assert refreshed(delta) == {1: (("x", "y", "vx", "vy"), (29.5, 6.0, 1.0, 2.0))}

    def test_refreshes_group_by_class_and_changed_cells(self):
        worker, partitioning = make_worker()
        agents = [Boid(agent_id=i, x=28.0 + i / 10, y=5.0) for i in range(4)]
        for agent in agents:
            worker.add_owned(agent)
        distribute(worker, partitioning)
        agents[0]._state["vx"] = 1.0
        agents[1]._state["vx"] = 2.0
        agents[2]._state["vy"] = 3.0
        delta = distribute(worker, partitioning).replicas_out[1]
        assert {
            (cls.__name__, cells): ids for (cls, cells), (ids, _) in delta.refreshes.items()
        } == {("Boid", (2,)): [0, 1], ("Boid", (3,)): [2]}

    def test_mutable_cell_ships_every_tick(self):
        # A list mutated in place keeps its identity: identity would call the
        # row unchanged forever, so the cell is stale on every tick.
        worker, partitioning = make_worker()
        agent = Logger(agent_id=1, x=29.0, y=5.0, hist=[1.0])
        worker.add_owned(agent)
        assert distribute(worker, partitioning).replicas_out[1].additions == [agent]
        for value in (2.0, 3.0):
            agent.hist.append(value)
            delta = distribute(worker, partitioning).replicas_out[1]
            assert delta.additions == []
            assert refreshed(delta) == {1: (("hist",), (agent.hist,))}
        agent._state["x"] = 29.5  # a rewritten cell rides along with it
        delta = distribute(worker, partitioning).replicas_out[1]
        assert refreshed(delta) == {1: (("x", "hist"), (29.5, agent.hist))}

    def test_reordered_state_ships_whole_never_misaligned(self):
        worker, partitioning = make_worker()
        agent = Boid(agent_id=1, x=29.0, y=5.0, vx=1.0, vy=2.0)
        worker.add_owned(agent)
        distribute(worker, partitioning)
        agent._state = dict(reversed(list(agent._state.items())))
        agent._state["vx"] = 4.0
        delta = distribute(worker, partitioning).replicas_out[1]
        assert delta.additions == [agent] and delta.refreshes == {}
        agent._state["vy"] = 5.0  # still reordered: still whole
        delta = distribute(worker, partitioning).replicas_out[1]
        assert delta.additions == [agent] and delta.refreshes == {}

    def test_another_class_under_the_same_id_ships_whole(self):
        worker, partitioning = make_worker()
        worker.add_owned(Boid(agent_id=1, x=29.0, y=5.0))
        distribute(worker, partitioning)
        logger = Logger(agent_id=1, x=29.0, y=5.0)
        worker.add_owned(logger)  # replaces the Boid under its id
        delta = distribute(worker, partitioning).replicas_out[1]
        assert delta.additions == [logger] and delta.refreshes == {}

    def test_identity_not_equality_decides_changed(self):
        # A rewritten-but-equal NaN is a *different object*: delta mode must
        # resend it rather than trust `==` (NaN != NaN would resend forever,
        # while `==` on 0.0/-0.0 would wrongly skip a sign flip).
        worker, partitioning = make_worker()
        agent = Boid(agent_id=1, x=29.0, y=5.0)
        agent._state["vx"] = math.nan
        worker.add_owned(agent)
        distribute(worker, partitioning)
        assert distribute(worker, partitioning).replicas_out == {}  # same object
        agent._state["vx"] = float("nan")  # equal-looking, distinct object
        result = distribute(worker, partitioning)
        assert 1 in result.replicas_out

    def test_leaving_visibility_emits_removal(self):
        worker, partitioning = make_worker()
        agent = Boid(agent_id=1, x=29.0, y=5.0)
        worker.add_owned(agent)
        distribute(worker, partitioning)
        agent._state["x"] = 5.0  # out of partition 1's visible region
        result = distribute(worker, partitioning)
        delta = result.replicas_out[1]
        assert delta.additions == []
        assert delta.removed_ids == [1]
        assert distribute(worker, partitioning).replicas_out == {}

    def test_migrated_away_agent_emits_removal(self):
        worker, partitioning = make_worker(partitions=3, width=90.0)
        agent = Boid(agent_id=1, x=29.0, y=5.0)
        worker.add_owned(agent)
        distribute(worker, partitioning)
        worker.remove_owned(1)  # owner changed; this shard no longer ships it
        result = distribute(worker, partitioning)
        assert result.replicas_out[1].removed_ids == [1]

    def test_self_destined_replicas_install_and_discard_locally(self):
        # An owned agent that migrates out but stays visible here becomes a
        # local replica; when it later leaves visibility the removal applies
        # directly instead of riding the wire.
        worker, partitioning = make_worker()
        agent = Boid(agent_id=1, x=31.0, y=5.0)  # owned by 1, visible in 0
        worker.add_owned(agent)
        result = distribute(worker, partitioning)
        assert result.agents_migrated == 1
        assert [a.agent_id for a in worker.replica_agents()] == [1]
        assert 0 not in result.replicas_out
        # The migrated copy now lives on worker 1; locally nothing remains,
        # so the retained self-replica must be discarded on the next pass.
        result = distribute(worker, partitioning)
        assert worker.replica_agents() == []

    def test_accounting_identical_to_full_mode(self):
        def populate(worker):
            for i in range(6):
                worker.add_owned(Boid(agent_id=i, x=24.0 + i, y=5.0))

        full_worker, partitioning = make_worker(transport_copies=False)
        populate(full_worker)
        full = full_worker.distribute(partitioning)

        delta_worker, _ = make_worker()
        populate(delta_worker)
        distribute(delta_worker, partitioning)  # warm the send cache
        steady = distribute(delta_worker, partitioning)

        # Modeled costs charge every logical replica even when nothing ships.
        assert steady.replicas_created == full.replicas_created > 0
        assert steady.replication_pair_bytes == full.replication_pair_bytes
        assert steady.replicas_out == {}

    def test_clear_replicas_forces_full_resend(self):
        worker, partitioning = make_worker()
        worker.add_owned(Boid(agent_id=1, x=29.0, y=5.0))
        distribute(worker, partitioning)
        worker.clear_replicas()  # what adopt_partitioning does on rebalance
        result = distribute(worker, partitioning)
        assert [a.agent_id for a in result.replicas_out[1].additions] == [1]

    def test_adopt_partitioning_drops_send_history(self):
        worker, partitioning = make_worker()
        worker.add_owned(Boid(agent_id=1, x=29.0, y=5.0))
        distribute(worker, partitioning)
        assert worker._replica_sent
        worker.adopt_partitioning(partitioning, partitioning.partition(0))
        assert worker._replica_sent == {}


class TestDeltaApply:
    def make_pair(self):
        source, partitioning = make_worker(0)
        destination = Worker(1, partitioning.partition(1), partitioning=partitioning)
        return source, destination, partitioning

    def ship(self, source, destination, partitioning):
        delta = distribute(source, partitioning).replicas_out.get(1)
        destination.apply_replica_deltas(over_the_wire([delta] if delta else []))

    def test_refresh_writes_cells_into_the_held_replica(self):
        source, destination, partitioning = self.make_pair()
        agent = Boid(agent_id=1, x=29.0, y=5.0)
        source.add_owned(agent)
        self.ship(source, destination, partitioning)
        held = destination.replicas[1]
        table = destination._replica_rows()
        agent._state["vx"] = -0.0
        agent._state["x"] = 29.25
        self.ship(source, destination, partitioning)
        assert destination.replicas[1] is held  # no agent built for a refresh
        assert destination._replica_table is table  # the table stays valid
        assert held.state_dict() == agent.state_dict()
        assert math.copysign(1.0, held.vx) == -1.0

    def test_refresh_of_an_unknown_id_raises(self):
        source, destination, partitioning = self.make_pair()
        agent = Boid(agent_id=1, x=29.0, y=5.0)
        source.add_owned(agent)
        distribute(source, partitioning)  # sent, but never applied here
        agent._state["vx"] = 2.0
        delta = distribute(source, partitioning).replicas_out[1]
        with pytest.raises(BraceError, match="holds no replica"):
            destination.apply_replica_deltas(over_the_wire([delta]))

    def test_refresh_of_another_class_raises(self):
        source, destination, partitioning = self.make_pair()
        agent = Boid(agent_id=1, x=29.0, y=5.0)
        source.add_owned(agent)
        self.ship(source, destination, partitioning)
        destination.install_replica(Logger(agent_id=1, x=29.0, y=5.0))
        agent._state["vx"] = 2.0
        delta = distribute(source, partitioning).replicas_out[1]
        with pytest.raises(BraceError, match="holds a Logger"):
            destination.apply_replica_deltas(over_the_wire([delta]))

    def test_removal_applies_before_another_sources_addition(self):
        _, destination, partitioning = self.make_pair()
        destination.install_replica(Boid(agent_id=1, x=29.0, y=5.0))
        arriving = Boid(agent_id=1, x=29.5, y=5.0)
        destination.apply_replica_deltas(
            over_the_wire([ReplicaDelta([arriving], []), ReplicaDelta([], [1])])
        )
        assert destination.replicas[1].state_dict() == arriving.state_dict()
        assert [a.agent_id for a in destination.replica_agents()] == [1]

    def test_retained_replicas_reset_their_effects(self):
        _, destination, _ = self.make_pair()
        replica = Boid(agent_id=1, x=29.0, y=5.0)
        destination.install_replica(replica)
        replica.set_effect_partials({"neighbor_count": 3})
        destination.apply_replica_deltas([])
        assert replica._effects_touched == set()
        assert replica.effect_partials()["neighbor_count"] == 0


class TestDeltaWireFormat:
    def test_replica_map_roundtrips_deltas_lazily(self):
        worker, partitioning = make_worker()
        worker.add_owned(Boid(agent_id=1, x=29.0, y=5.0))
        result = distribute(worker, partitioning)
        decoded = _lazy_replica_deltas(_pack_replica_deltas(result.replicas_out))
        delta = decoded[1]
        assert isinstance(delta, ReplicaDelta)
        assert isinstance(delta.additions, LazyAgentFrame)
        assert [a.agent_id for a in delta.additions.unpack()] == [1]
        assert delta.removed_ids == []

    def test_routed_deltas_roundtrip(self):
        worker, partitioning = make_worker()
        agent = Boid(agent_id=1, x=29.0, y=5.0)
        worker.add_owned(agent)
        shipped = distribute(worker, partitioning).replicas_out[1]
        agent._state["x"] = 5.0
        removal = distribute(worker, partitioning).replicas_out[1]
        chunks = [shipped, removal]
        decoded = _unpack_routed_deltas(_pack_routed_deltas(chunks))
        assert [a.agent_id for a in decoded[0].additions.unpack()] == [1]
        assert decoded[0].removed_ids == []
        assert decoded[1].additions.unpack() == []
        assert decoded[1].removed_ids == [1]

    def test_routed_frames_reemit_without_unpacking(self):
        worker, partitioning = make_worker()
        worker.add_owned(Boid(agent_id=1, x=29.0, y=5.0))
        result = distribute(worker, partitioning)
        lazy = _lazy_replica_deltas(_pack_replica_deltas(result.replicas_out))
        packed_frame = lazy[1].additions.frame
        entries = _pack_routed_deltas([lazy[1]])
        assert entries[0][0] is packed_frame  # same object, never re-encoded
