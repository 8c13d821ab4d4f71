"""The batch map phase against the per-agent loop it replaced.

Two sets of workers start from copies of one world and run the same ticks:
one through :meth:`Worker.distribute` / :meth:`Worker.run_query_phase`, the
other through :mod:`tests.brace.reference_map_phase` (the old loop and the
old snapshot assembly, verbatim).  After every tick every field of every
``DistributionResult`` — list order included — every ``worker.replicas``,
every ``_replica_sent`` and every snapshot row must be identical.

The call-count guards are the map-phase twin of the "compiled tick makes no
per-agent ``visible()`` calls" guard: interior agents cost the map phase no
Python call at all, and the modeled row size (a function of the class) is
taken once per class of boundary agent.
"""

import copy

import numpy as np
import pytest

from repro.brace import replication, worker as worker_module
from repro.brace.shards import _pack_routed_deltas, _unpack_routed_deltas
from repro.brace.worker import Worker, _SortedAgents
from repro.core.agent import Agent
from repro.core.combinators import COUNT
from repro.core.errors import BraceError
from repro.core.fields import EffectField, StateField
from repro.core.ordering import agent_sort_key
from repro.ipc.frames import ReplicaDelta
from repro.spatial.bbox import BBox
from repro.spatial.partitioning import GridPartitioning, StripPartitioning

from tests.brace.reference_map_phase import reference_distribute, reference_snapshot

SIZE = 60.0
BOUNDS = BBox(((0.0, SIZE), (0.0, SIZE)))
SEED = 11


class Drifter(Agent):
    """Moves by its velocity; a parked one rewrites nothing (a delta *hit*)."""

    x = StateField(0.0, spatial=True, visibility=4.0, reachability=4.0)
    y = StateField(0.0, spatial=True, visibility=4.0, reachability=4.0)
    vx = StateField(0.0)
    vy = StateField(0.0)
    seen = EffectField(COUNT)

    def query(self, ctx):
        for _other in ctx.visible(self):
            self.seen = 1

    def update(self, ctx):
        if self.vx or self.vy:
            self.x = self.x + self.vx
            self.y = self.y + self.vy


class Beacon(Agent):
    """Unbounded visibility: replicated to every partition, never moves."""

    x = StateField(0.0, spatial=True, visibility=None)
    y = StateField(0.0, spatial=True, visibility=None)


def make_agents(count: int = 160) -> list[Agent]:
    rng = np.random.default_rng(SEED)
    agents = []
    for index in range(count):
        x, y = (float(v) for v in rng.uniform(-2.0, SIZE + 2.0, 2))
        if index % 16 == 0:
            agents.append(Beacon(agent_id=index, x=x, y=y))
        elif index % 3 == 0:
            agents.append(Drifter(agent_id=index, x=x, y=y))  # parked
        else:
            vx, vy = (float(v) for v in rng.uniform(-3.5, 3.5, 2))
            agents.append(Drifter(agent_id=index, x=x, y=y, vx=vx, vy=vy))
    return agents


def make_workers(partitioning, agents) -> list[Worker]:
    workers = [
        Worker(part.partition_id, part, partitioning=partitioning)
        for part in partitioning.partitions()
    ]
    for agent in agents:
        workers[partitioning.partition_of(agent.position())].add_owned(agent)
    return workers


def route(workers, results, transport_copies) -> None:
    """What the driver and ``shard_query_phase`` do between rounds 1 and 2."""
    for result in results:
        for destination, agents in sorted(result.migrations_out.items()):
            for agent in agents:
                workers[destination].add_owned(agent)
    if not transport_copies:
        for result in results:
            for destination, replicas in sorted(result.replicas_out.items()):
                for replica in replicas:
                    workers[destination].install_replica(replica)
        return
    for worker in workers:
        deltas = [
            result.replicas_out[worker.worker_id]
            for result in results
            if worker.worker_id in result.replicas_out
        ]
        # Through the wire transforms: the destination gets the wire's copy.
        worker.apply_replica_deltas(_unpack_routed_deltas(_pack_routed_deltas(deltas)))


def describe_agents(agents) -> list:
    return [
        (type(a).__name__, a.agent_id, a.state_dict(), a.effect_partials(), sorted(a._effects_touched))
        for a in agents
    ]


def describe_result(result) -> dict:
    replicas = []
    for destination, shipped in result.replicas_out.items():
        if isinstance(shipped, ReplicaDelta):
            refreshes = [
                (cls.__name__, cells, ids, rows)
                for (cls, cells), (ids, rows) in shipped.refreshes.items()
            ]
            replicas.append(
                (destination, describe_agents(shipped.additions), shipped.removed_ids, refreshes)
            )
        else:
            replicas.append((destination, describe_agents(shipped)))
    return {
        "migrations_out": [
            (destination, describe_agents(agents))
            for destination, agents in result.migrations_out.items()
        ],
        "replicas_out": replicas,
        "migration_pair_bytes": list(result.migration_pair_bytes.items()),
        "replication_pair_bytes": list(result.replication_pair_bytes.items()),
        "agents_migrated": result.agents_migrated,
        "replicas_created": result.replicas_created,
    }


def describe_worker(worker) -> dict:
    return {
        "owned": describe_agents(worker.owned_agents()),
        "owned_dict_order": list(worker.owned),
        "replicas": describe_agents(worker.replicas.values()),
        "replica_sent": [
            (target, list(rows.items())) for target, rows in worker._replica_sent.items()
        ],
        "delta_mode": worker._replica_delta_mode,
    }


def query_round(workers, tick) -> None:
    for worker in workers:
        worker.run_query_phase(
            tick=tick,
            seed=SEED,
            check_visibility=True,
            spatial_backend="vectorized",
            plan_backend="interpreted",
        )


def update_round(workers, tick) -> None:
    for worker in workers:
        worker.run_update_phase(tick=tick, seed=SEED, world_bounds=BOUNDS)


PARTITIONINGS = {
    "strips": lambda: StripPartitioning.uniform(BOUNDS, 0, 4),
    "grid": lambda: GridPartitioning(BOUNDS, [2, 3]),
    "one": lambda: StripPartitioning.uniform(BOUNDS, 0, 1),
}


@pytest.mark.parametrize("layout", sorted(PARTITIONINGS))
@pytest.mark.parametrize("transport_copies", [False, True])
def test_batch_map_phase_equals_the_per_agent_loop(layout, transport_copies):
    partitioning = PARTITIONINGS[layout]()
    agents = make_agents()
    batch = make_workers(partitioning, copy.deepcopy(agents))
    reference = make_workers(partitioning, copy.deepcopy(agents))
    migrated = removed = refreshed = 0
    for tick in range(7):
        batch_results = [
            worker.distribute(transport_copies=transport_copies) for worker in batch
        ]
        reference_results = [
            reference_distribute(worker, partitioning, transport_copies) for worker in reference
        ]
        for ours, theirs in zip(batch_results, reference_results):
            assert describe_result(ours) == describe_result(theirs)
            migrated += ours.agents_migrated
            if transport_copies:
                removed += sum(len(delta.removed_ids) for delta in ours.replicas_out.values())
                refreshed += sum(
                    len(ids)
                    for delta in ours.replicas_out.values()
                    for ids, _ in delta.refreshes.values()
                )
        route(batch, batch_results, transport_copies)
        route(reference, reference_results, transport_copies)
        query_round(batch, tick)
        query_round(reference, tick)
        for ours, theirs in zip(batch, reference):
            assert describe_worker(ours) == describe_worker(theirs)
            expected = reference_snapshot(theirs)
            snapshot = ours.last_snapshot
            assert [a.agent_id for a in snapshot.items] == [a.agent_id for a in expected.items]
            assert snapshot.points.dtype == np.float64
            assert snapshot.points.shape == expected.points.shape
            assert snapshot.points.tobytes() == expected.points.tobytes()
            # Rows still describe the very objects the query phase reads.
            assert [a.position() for a in snapshot.items] == [tuple(p) for p in snapshot.points.tolist()]
        update_round(batch, tick)
        update_round(reference, tick)
    if layout != "one":
        assert migrated > 20  # the run did exercise migrations ...
        if transport_copies:
            assert removed > 5  # ... and delta removals
            assert refreshed > 20  # ... and refreshes of held rows


def test_arrivals_and_boundary_changes_keep_the_owned_table_in_step():
    """Births, deaths and arrivals between the harvest and the snapshot."""
    partitioning = PARTITIONINGS["strips"]()
    workers = make_workers(partitioning, make_agents(80))
    worker = workers[1]
    worker.distribute()
    newcomer = Drifter(agent_id=7.5, x=20.0, y=20.0)  # sorts between 7 and 8
    worker.add_owned(newcomer)
    query_round([worker], 0)
    expected = reference_snapshot(worker)
    assert [a.agent_id for a in worker.last_snapshot.items] == [a.agent_id for a in expected.items]
    assert worker.last_snapshot.points.tobytes() == expected.points.tobytes()

    # A removal after the harvest drops the harvested rows instead of
    # serving stale ones.
    worker.distribute()
    victim = worker.owned_agents()[0]
    worker.apply_boundary([victim.agent_id], [Drifter(agent_id=1000, x=16.0, y=1.0)])
    query_round([worker], 1)
    expected = reference_snapshot(worker)
    assert victim.agent_id not in [a.agent_id for a in worker.last_snapshot.items]
    assert [a.agent_id for a in worker.last_snapshot.items] == [a.agent_id for a in expected.items]
    assert worker.last_snapshot.points.tobytes() == expected.points.tobytes()

    # An agent replaced under its own id must not keep the old object's row.
    worker.distribute()
    replaced = worker.owned_agents()[0]
    worker.add_owned(Drifter(agent_id=replaced.agent_id, x=17.0, y=2.0))
    query_round([worker], 2)
    expected = reference_snapshot(worker)
    assert worker.last_snapshot.points.tobytes() == expected.points.tobytes()
    assert replaced not in worker.last_snapshot.items


def test_the_sorted_table_keeps_agents_keys_and_rows_aligned():
    """Every operation of the table the owned set and the replicas live in."""
    rng = np.random.default_rng(SEED)

    def drifters(ids):
        xs = rng.uniform(0, SIZE, len(ids)).tolist()
        return [Drifter(agent_id=i, x=x, y=1.0) for i, x in zip(ids, xs)]

    def check(table):
        ids = [agent.agent_id for agent in table.agents]
        assert table.keys == [agent_sort_key(i) for i in ids] == sorted(table.keys)
        if table.points is not None:
            assert table.points.tolist() == [list(a.position()) for a in table.agents]

    table = _SortedAgents(drifters([9, 3, "b", 5.5, 1])).settle()
    check(table)
    assert table.points is None
    table.harvest()
    handed_out = table.agents
    for agent in drifters([4, "a", 0]):  # arrivals after the harvest
        table.insert(agent)
    check(table.settle())
    assert len(table.agents) == 8 and len(handed_out) == 5  # rebinds, never mutates
    table.keep(np.array([True, False] * 4))
    check(table)
    assert len(table.points) == 4

    other = _SortedAgents(drifters([2, 7, "c"])).settle()
    for harvested in (True, False):
        if not harvested:
            table.points = None
        before = (table.agents, table.keys, table.points)
        agents, points = table.extent_with(other)
        assert (table.agents, table.keys, table.points) == before
        assert [a.agent_id for a in agents] == sorted(
            [a.agent_id for a in table.agents + other.agents], key=agent_sort_key
        )
        assert points.tolist() == [list(a.position()) for a in agents]
    assert _SortedAgents().settle().harvest() is None


@pytest.mark.parametrize("harvested", [False, True])
def test_remove_and_replace_edit_the_sorted_table_in_place(harvested):
    """The replica table's row edits keep agents, keys and rows aligned."""
    rng = np.random.default_rng(SEED)

    def drifter(agent_id):
        return Drifter(agent_id=agent_id, x=float(rng.uniform(0, SIZE)), y=2.0)

    def check(table):
        ids = [agent.agent_id for agent in table.agents]
        assert table.keys == [agent_sort_key(i) for i in ids] == sorted(table.keys)
        if table.points is not None:
            assert table.points.tolist() == [list(a.position()) for a in table.agents]

    table = _SortedAgents(map(drifter, [9, 3, "b", 5.5, 1, "a", 0])).settle()
    if harvested:
        table.harvest()
    table.insert(drifter(4))  # not yet settled: found all the same
    table.remove(5.5)
    check(table)
    table.remove("a")
    table.remove(0)  # the first row
    table.remove("b")  # the last row
    check(table)
    replacement = drifter(3)
    table.replace(replacement)
    check(table)
    assert replacement in table.agents
    assert [a.agent_id for a in table.agents] == [1, 3, 4, 9]
    for missing in (5.5, "zz", 2):
        with pytest.raises(KeyError):
            table.remove(missing)
    with pytest.raises(KeyError):
        table.replace(drifter(8))
    check(table)


def test_replica_changes_edit_the_replica_table_instead_of_dropping_it():
    worker = make_workers(PARTITIONINGS["strips"](), [])[0]
    replicas = [Drifter(agent_id=i, x=1.0, y=float(i)) for i in range(6)]
    for replica in replicas:
        worker.install_replica(replica)
    table = worker._replica_rows()
    worker.discard_replica(2)
    worker.install_replica(Drifter(agent_id=2.5, x=1.0, y=1.0))
    newer = Drifter(agent_id=4, x=2.0, y=2.0)
    worker.install_replica(newer)
    assert worker._replica_rows() is table
    assert [a.agent_id for a in worker.replica_agents()] == [0, 1, 2.5, 3, 4, 5]
    assert worker.replica_agents()[4] is newer
    assert worker.replica_agents() == sorted(
        worker.replicas.values(), key=lambda agent: agent_sort_key(agent.agent_id)
    )


def test_a_class_without_spatial_fields_has_no_owner():
    """BRACE places agents by position; a shard refuses what it cannot place."""

    class Scoreboard(Agent):
        score = StateField(0.0)

    partitioning = PARTITIONINGS["grid"]()
    worker = make_workers(partitioning, make_agents(20))[0]
    for add in (
        worker.add_owned,
        lambda agent: worker.install_owned([agent]),
        lambda agent: worker.apply_boundary([], [agent]),
    ):
        with pytest.raises(BraceError, match="no spatial field"):
            add(Scoreboard(agent_id=5000))
    assert 5000 not in worker.owned
    worker.distribute()  # the shard is still whole


# ----------------------------------------------------------------------
# Call counts: Python only for boundary agents
# ----------------------------------------------------------------------
class CallCounter:
    def __init__(self, monkeypatch):
        self.calls: dict[str, int] = {}
        self._monkeypatch = monkeypatch

    def watch(self, owner, attribute: str) -> None:
        original = vars(owner)[attribute]
        name = f"{owner.__name__}.{attribute}"
        self.calls[name] = 0
        function = original.__func__ if isinstance(original, classmethod) else original

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return function(*args, **kwargs)

        if isinstance(original, classmethod):
            counted = classmethod(counted)
        self._monkeypatch.setattr(owner, attribute, counted)


@pytest.fixture
def counter(monkeypatch):
    counter = CallCounter(monkeypatch)
    counter.watch(replication, "replication_targets")
    counter.watch(worker_module, "agent_frame_bytes")
    counter.watch(Agent, "clone")
    counter.watch(Agent, "position")
    counter.watch(Agent, "visibility_radii")
    return counter


def strip_worker(agents, strips=2):
    partitioning = StripPartitioning.uniform(BOUNDS, 0, strips)
    worker = Worker(0, partitioning.partition(0), partitioning=partitioning)
    for agent in agents:
        worker.add_owned(agent)
    return worker


@pytest.mark.parametrize("transport_copies", [False, True])
def test_interior_world_costs_the_map_phase_no_per_agent_call(counter, transport_copies):
    # Strip 0 is x in [0, 30]; visibility is 4: nobody within 4 of the face.
    agents = [
        Drifter(agent_id=i, x=1.0 + (i % 25), y=float(i % 60)) for i in range(500)
    ]
    worker = strip_worker(agents)
    result = worker.distribute(transport_copies=transport_copies)
    assert result.replicas_created == 0 and result.agents_migrated == 0
    assert counter.calls == {
        "repro.brace.replication.replication_targets": 0,
        "repro.brace.worker.agent_frame_bytes": 0,
        "Agent.clone": 0,
        "Agent.position": 0,
        "Agent.visibility_radii": 1,  # once per class
    }


def test_boundary_world_costs_one_size_call_per_class(counter):
    interior = [Drifter(agent_id=i, x=5.0, y=float(i)) for i in range(40)]
    replicating = [Drifter(agent_id=100 + i, x=27.5, y=float(i)) for i in range(7)]
    migrating = [Drifter(agent_id=200 + i, x=45.0, y=float(i)) for i in range(3)]
    both = [Drifter(agent_id=300 + i, x=31.0, y=float(i)) for i in range(2)]
    worker = strip_worker(interior + replicating + migrating + both)
    result = worker.distribute()
    assert result.agents_migrated == 5
    assert result.replicas_created == 9
    assert counter.calls["repro.brace.worker.agent_frame_bytes"] == 1  # 12 boundary rows
    assert counter.calls["Agent.clone"] == 9
    assert counter.calls["repro.brace.replication.replication_targets"] == 0
    assert counter.calls["Agent.position"] == 0


def test_unbounded_class_is_resolved_once_not_per_row(counter):
    beacons = [Beacon(agent_id=i, x=5.0, y=float(i)) for i in range(50)]
    worker = strip_worker(beacons, strips=3)
    result = worker.distribute(transport_copies=True)
    assert result.replicas_created == 100
    assert counter.calls["repro.brace.worker.agent_frame_bytes"] == 1
    assert counter.calls["Agent.visibility_radii"] == 1
    assert counter.calls["Agent.position"] == 0
