"""Replica delta shipping: ship only what the destination doesn't hold.

Over a copying transport (``distribute(transport_copies=True)``) every
destination retains last tick's replicas and the source ships a
:class:`~repro.ipc.frames.ReplicaDelta` naming only new, changed, or
removed rows.  "Changed" is decided by *object identity* of the state
values against what was last sent — exact by construction, never by
``==`` (which would conflate NaNs and signed zeros).  These tests pin the
protocol's invariants; the end-to-end equivalence suites prove the whole
runtime stays bit-identical across transports.
"""

import math

from repro.brace.shards import (
    _lazy_replica_deltas,
    _pack_replica_deltas,
    _pack_routed_deltas,
    _unpack_routed_deltas,
)
from repro.brace.worker import Worker
from repro.ipc.frames import LazyAgentFrame, ReplicaDelta
from repro.spatial.bbox import BBox
from repro.spatial.partitioning import StripPartitioning

from tests.conftest import Boid


def make_worker(worker_id=0, partitions=2, width=60.0):
    partitioning = StripPartitioning.uniform(
        BBox(((0.0, width), (0.0, width))), 0, partitions
    )
    return Worker(worker_id, partitioning.partition(worker_id)), partitioning


def distribute(worker, partitioning):
    return worker.distribute(partitioning, transport_copies=True)


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
        assert [a.agent_id for a in delta.additions] == [1]
        assert delta.additions[0]._state["vx"] == 3.5

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

        full_worker, partitioning = make_worker()
        populate(full_worker)
        full = full_worker.distribute(partitioning, transport_copies=False)

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
