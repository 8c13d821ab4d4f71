"""The shard-host contract, once, for every executor.

Every executor hosts durable shard state behind the same three calls
(``init_shards`` / ``run_sharded_tasks`` / ``teardown_shards``); the first
half of this suite runs on all four.  The two *wire* executors — forked
``process`` nodes over socketpairs and ``cluster`` nodes that dial in over
TCP — are one client class speaking to one shard host, so everything past
the attachment (pinned node processes, measured bytes, typed errors, stream
hygiene after an aborted round, migration, supervised node loss) is checked
once, on both.  A wire runs shard rounds only: it refuses ``run_tasks``.
"""

import os
import subprocess
import threading
from functools import partial

import pytest

from repro.brace.config import BraceConfig
from repro.cluster.client import ClusterExecutor
from repro.core.errors import ExecutorError, NodeLossError
from repro.mapreduce.executor import make_executor

ALL = ["serial", "thread", "process", "cluster"]
WIRE = ["process", "cluster"]


def build(kind):
    if kind == "cluster":
        return ClusterExecutor(2, heartbeat_interval=0.1)
    return make_executor(BraceConfig(executor=kind, max_workers=2))


# One executor per kind for the whole module, wiped between tests: node
# processes are the expensive part of a wire executor (a spawned cluster node
# is a fresh interpreter), and keeping them across shard sets is part of the
# contract — so the tests share them, and each starts from the clean slate
# ``teardown_shards()`` leaves.
@pytest.fixture(scope="module", params=ALL)
def shared_executor(request):
    executor = build(request.param)
    yield executor
    executor.shutdown()


@pytest.fixture(scope="module", params=WIRE)
def shared_wire(request):
    executor = build(request.param)
    yield executor
    executor.shutdown()


@pytest.fixture
def executor(shared_executor):
    yield shared_executor
    shared_executor.teardown_shards()


@pytest.fixture
def wire(shared_wire):
    yield shared_wire
    shared_wire.teardown_shards()
    shared_wire.drain_fault_events()


# Module-level shard helpers: a wire pickles them by name.
class CounterShard:
    """Minimal resident state: remembers its payload and counts calls."""

    def __init__(self, shard_id, start, calls=0):
        self.shard_id = shard_id
        self.value = start
        self.calls = calls

    def migration_seed(self):
        """What travels on a migration: the value and the call count."""
        return (self.value, self.calls)


def make_counter(shard_id, payload):
    """Seed a counter from a start value, or rebuild one from its migration seed."""
    if isinstance(payload, tuple):
        return CounterShard(shard_id, *payload)
    return CounterShard(shard_id, payload)


class PlainShard:
    """A shard state without a ``migration_seed()``: it cannot migrate."""


def make_plain(shard_id, payload):
    return PlainShard()


def add_task(shard, amount):
    shard.value += amount
    shard.calls += 1
    return (shard.shard_id, shard.value, shard.calls)


def failing_task(shard, payload):
    raise KeyError("missing-thing")


def type_error_task(shard, message):
    raise TypeError(message)


def shard_pid(_shard, _payload):
    return os.getpid()


def identity_task(value):
    return value


class TestEveryExecutor:
    """Durable state, shard-affine dispatch, submission order."""

    def test_state_persists_across_batches(self, executor):
        executor.init_shards(make_counter, {0: 100, 1: 200, 2: 300})
        assert executor.has_shards()
        first = executor.run_sharded_tasks(
            [(0, add_task, 1), (1, add_task, 2), (2, add_task, 3)]
        )
        assert [r.value for r in first] == [(0, 101, 1), (1, 202, 1), (2, 303, 1)]
        second = executor.run_sharded_tasks(
            [(2, add_task, 3), (0, add_task, 1), (1, add_task, 2)]
        )
        # State accumulated where the shard lives; results in submission order.
        assert [r.value for r in second] == [(2, 306, 2), (0, 102, 2), (1, 204, 2)]
        assert all(r.wall_seconds >= 0.0 for r in second)
        executor.teardown_shards()
        assert not executor.has_shards()

    def test_same_shard_tasks_run_in_submission_order(self, executor):
        executor.init_shards(make_counter, {0: 0})
        results = executor.run_sharded_tasks([(0, add_task, 1)] * 4)
        assert [r.value for r in results] == [(0, n, n) for n in (1, 2, 3, 4)]

    def test_init_twice_rejected_and_teardown_allows_reinit(self, executor):
        executor.init_shards(make_counter, {0: 0})
        with pytest.raises(ExecutorError, match="already initialized"):
            executor.init_shards(make_counter, {0: 0})
        executor.teardown_shards()
        assert not executor.has_shards()
        executor.init_shards(make_counter, {0: 7})
        assert executor.run_sharded_tasks([(0, add_task, 1)])[0].value == (0, 8, 1)

    def test_run_without_init_raises(self, executor):
        with pytest.raises(ExecutorError, match="init_shards"):
            executor.run_sharded_tasks([(0, add_task, 1)])

    def test_unknown_shard_raises(self, executor):
        executor.init_shards(make_counter, {0: 0})
        with pytest.raises(ExecutorError, match="unknown resident shard"):
            executor.run_sharded_tasks([(5, add_task, 1)])

    def test_byte_accounting_matches_transport(self, executor):
        executor.init_shards(make_counter, {0: 0, 1: 0})
        results = executor.run_sharded_tasks([(0, add_task, 1), (1, add_task, 2)])
        if executor.shares_memory:
            # Nothing was serialized: bytes must be exactly zero.
            assert all(r.payload_bytes == 0 and r.result_bytes == 0 for r in results)
        else:
            # Real encoded sizes in both directions.
            assert all(r.payload_bytes > 0 and r.result_bytes > 0 for r in results)


class TestWireResidency:
    def test_shards_are_pinned_to_node_processes(self, wire):
        wire.init_shards(make_counter, {0: 0, 1: 0, 2: 0, 3: 0})
        first = [r.value for r in wire.run_sharded_tasks([(s, shard_pid, None) for s in range(4)])]
        second = [r.value for r in wire.run_sharded_tasks([(s, shard_pid, None) for s in range(4)])]
        # A shard never moves between processes...
        assert first == second
        # ...with 2 nodes for 4 shards, exactly 2 processes (not the driver) are used...
        assert len(set(first)) == 2 and os.getpid() not in first
        assert {wire.shard_node(s) for s in range(4)} == {0, 1}
        # ...and the driver-side affinity probe agrees with what actually ran.
        assert first == [wire.shard_host_pid(s) for s in range(4)]

    def test_topology_records_placement(self, wire):
        wire.init_shards(make_counter, {0: 0, 1: 0})
        topology = wire.node_topology()
        assert len(topology) == 2
        assert sorted(s for record in topology for s in record["shards"]) == [0, 1]
        for record in topology:
            assert record["spawned"] is True
            assert record["pid"] == wire.node_pids()[record["node"]]
            assert record["address"]


class TestWireErrors:
    def test_unpicklable_seed_payload_raises_executor_error(self, wire):
        with pytest.raises(ExecutorError, match="picklable"):
            wire.init_shards(make_counter, {0: 1, 1: lambda: None})
        # The failed init wiped what did install; a clean retry works.
        assert not wire.has_shards()
        wire.init_shards(make_counter, {0: 5, 1: 5})
        assert wire.run_sharded_tasks([(0, add_task, 1)])[0].value == (0, 6, 1)

    def test_unpicklable_task_payload_raises_executor_error(self, wire):
        wire.init_shards(make_counter, {0: 0})
        with pytest.raises(ExecutorError, match="picklable"):
            wire.run_sharded_tasks([(0, add_task, lambda: None)])

    def test_run_tasks_is_refused_with_a_pointer_to_shard_rounds(self, wire):
        with pytest.raises(ExecutorError, match="run_sharded_tasks"):
            wire.run_tasks([partial(identity_task, 1)])

    def test_genuine_type_error_is_not_reported_as_pickling(self, wire):
        # Only errors that talk about pickling become ExecutorErrors; a
        # TypeError raised by the task body itself passes through unchanged.
        wire.init_shards(make_counter, {0: 0})
        with pytest.raises(TypeError, match="bad operand") as raised:
            wire.run_sharded_tasks([(0, type_error_task, "bad operand")])
        assert not isinstance(raised.value, ExecutorError)

    def test_remote_task_error_surfaces_original_type(self, wire):
        wire.init_shards(make_counter, {0: 0})
        with pytest.raises(KeyError, match="missing-thing"):
            wire.run_sharded_tasks([(0, failing_task, None)])
        # The node survives a task error; the shard state is untouched.
        assert wire.run_sharded_tasks([(0, add_task, 1)])[0].value == (0, 1, 1)


class TestAbortedRoundLeavesNoStaleReply:
    """A round that cannot *produce* command k raises only after the replies
    to commands 0..k-1 are collected — or the next round would read them."""

    def test_payload_that_fails_to_encode_mid_round(self, wire):
        wire.init_shards(make_counter, {0: 0, 1: 0})
        with pytest.raises(ExecutorError, match="picklable"):
            wire.run_sharded_tasks([(0, add_task, 5), (1, add_task, threading.Lock())])
        # Task 0 of the aborted round did run (5); this round's reply is its own.
        results = wire.run_sharded_tasks([(0, add_task, 100), (1, add_task, 1)])
        assert [r.value for r in results] == [(0, 105, 2), (1, 1, 1)]

    def test_unknown_shard_mid_round(self, wire):
        wire.init_shards(make_counter, {0: 0})
        with pytest.raises(ExecutorError, match="unknown resident shard"):
            wire.run_sharded_tasks([(0, add_task, 5), (9, add_task, 1)])
        assert wire.run_sharded_tasks([(0, add_task, 100)])[0].value == (0, 105, 2)

    def test_reseed_payload_that_fails_to_encode(self, wire):
        wire.init_shards(make_counter, {0: 0, 1: 0, 2: 0, 3: 0})
        victim = wire.shard_node(0)
        wire._nodes[victim].process.kill()
        with pytest.raises(NodeLossError):
            for _ in range(20):
                wire.run_sharded_tasks([(s, add_task, 1) for s in range(4)])
        lost = wire.lost_shards()
        assert len(lost) == 2
        with pytest.raises(ExecutorError, match="picklable"):
            wire.reseed_shards({lost[0]: 7, lost[1]: threading.Lock()})
        # Still awaiting the reseed; a good one lands on a clean stream.
        assert wire.lost_shards() == lost
        wire.reseed_shards({shard_id: 7 for shard_id in lost})
        results = wire.run_sharded_tasks([(s, add_task, 1) for s in lost])
        assert [r.value for r in results] == [(s, 8, 1) for s in lost]


class TestMigration:
    def test_migrate_moves_live_state(self, wire):
        wire.init_shards(make_counter, {0: 100, 1: 200})
        wire.run_sharded_tasks([(0, add_task, 1), (1, add_task, 1)])
        destination = 1 - wire.shard_node(0)
        assert wire.migrate_shard(0, destination) > 0
        assert wire.shard_node(0) == destination
        assert wire.shard_host_pid(0) == wire.node_pids()[destination]
        # The migrated shard kept its mutated value and call count (its
        # migration seed), not its seed payload.
        assert wire.run_sharded_tasks([(0, add_task, 1)])[0].value == (0, 102, 2)

    def test_a_shard_without_a_migration_seed_stays_put(self, wire):
        wire.init_shards(make_plain, {0: None})
        source = wire.shard_node(0)
        with pytest.raises(AttributeError, match="migration_seed"):
            wire.migrate_shard(0, 1 - source)
        assert wire.shard_node(0) == source
        assert wire.run_sharded_tasks([(0, shard_pid, None)])[0].value == wire.shard_host_pid(0)

    def test_migrate_to_current_node_is_noop(self, wire):
        wire.init_shards(make_counter, {0: 0})
        assert wire.migrate_shard(0, wire.shard_node(0)) == 0

    def test_rebalance_follows_weights(self, wire):
        wire.init_shards(make_counter, {0: 0, 1: 0, 2: 0, 3: 0})
        # All the weight on shard 3: the planner must give it a node of
        # its own and pack the light shards together.
        moves, moved_bytes = wire.rebalance_shards({0: 1.0, 1: 1.0, 2: 1.0, 3: 500.0})
        assert wire.shard_node(3) != wire.shard_node(0)
        assert wire.shard_node(0) == wire.shard_node(1) == wire.shard_node(2)
        assert moves and moved_bytes > 0


class TestNodeDeath:
    def test_dead_node_is_supervised_not_fatal(self, wire):
        wire.init_shards(make_counter, {0: 0, 1: 0, 2: 0})
        victim = wire.shard_node(0)
        wire._nodes[victim].process.kill()
        with pytest.raises(NodeLossError, match="recover from the last checkpoint") as info:
            for _ in range(20):
                wire.run_sharded_tasks([(i, add_task, 1) for i in range(3)])
        # Supervision pins the loss to the node that actually died and
        # keeps the survivors' resident state — there is no teardown.
        assert info.value.node_index == victim
        assert wire.has_shards()
        lost = wire.lost_shards()
        assert lost == tuple(info.value.lost_shards)
        assert lost and all(s not in wire._shard_to_node for s in lost)
        # Rounds are refused until the lost shards are re-seeded...
        with pytest.raises(ExecutorError, match="re-seeded"):
            wire.run_sharded_tasks([(i, add_task, 1) for i in range(3)])
        # ...and resume — with survivor state intact — once they are.
        wire.reseed_shards({shard_id: 0 for shard_id in lost})
        results = wire.run_sharded_tasks([(i, add_task, 1) for i in range(3)])
        by_shard = {r.value[0]: r.value for r in results}
        for shard_id in lost:
            assert by_shard[shard_id] == (shard_id, 1, 1)  # re-seeded fresh
        for shard_id in set(range(3)) - set(lost):
            # Survivor state outlived the loss (never re-seeded, still counting).
            assert by_shard[shard_id][2] >= 1
        (event,) = wire.drain_fault_events()
        assert event["action"] == "respawned"
        assert event["node"] == victim


class TestForkedAttachment:
    """What only ``process`` does: nodes forked over private socketpairs."""

    def test_node_exits_when_its_driver_end_closes(self):
        # A forked child inherits every driver-side socket open at the fork:
        # node 1 a copy of node 0's, and each node a copy of its own.  Had
        # either kept its copy, closing the driver's end would not read as
        # end-of-stream on the node — it would serve a driver that is gone.
        executor = make_executor(BraceConfig(executor="process", max_workers=2))
        try:
            executor.init_shards(make_counter, {0: 0, 1: 0})
            first, second = (executor._nodes[index] for index in (0, 1))
            first.sock.close()
            first.process.wait(timeout=10)  # raises TimeoutExpired if still serving
            # The sibling is untouched: it still answers, then exits the same way.
            with pytest.raises(subprocess.TimeoutExpired):
                second.process.wait(timeout=0.2)
            second.sock.close()
            second.process.wait(timeout=10)
        finally:
            executor.shutdown()

    def test_nodes_are_reused_across_shard_sets(self):
        with make_executor(BraceConfig(executor="process", max_workers=2)) as executor:
            executor.init_shards(make_counter, {0: 0, 1: 0})
            pids = executor.node_pids()
            executor.teardown_shards()
            executor.init_shards(make_counter, {0: 0, 1: 0})
            assert executor.node_pids() == pids
