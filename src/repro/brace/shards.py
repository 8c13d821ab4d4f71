"""The shard protocol: what crosses the driver/shard boundary.

Each executor host durably hosts one or more
:class:`~repro.brace.worker.Worker` objects across ticks — the paper's
collocation argument made literal.  The driver never ships a worker's owned
agents per tick; instead each tick exchanges three **deltas**, one shard
round per phase:

1. :func:`shard_map_phase` — the shard applies the previous boundary's
   births/deaths, resets effects, and computes its outgoing migrations and
   boundary replicas locally (:meth:`Worker.distribute`).  Only agents that
   actually crossed a partition boundary come back.
2. :func:`shard_query_phase` — the driver routes the migrated agents and
   replicas in; the shard joins owned + replicas and runs the query
   phase.  Only the *non-local* effect partials accumulated on replicas come
   back; owned effects stay resident.
3. :func:`shard_update_phase` — the driver routes each shard the remote
   partials addressed to it (in the global deterministic order); the shard
   merges them and runs the update phase.  Only birth/death requests come
   back; the new states stay resident.

Epoch-boundary operations (:func:`shard_collect_coordinates` for the load
balancer, :func:`shard_capture` for checkpoints,
:func:`shard_adopt_partitioning` / :func:`shard_install_owned` for physical
repartitioning) pull state on demand, exactly as the paper's master talks to
its slaves once per epoch; :func:`shard_collect_states` syncs the driver's
world on demand.  A shard's one state image is its :class:`ShardSeed`
encoded by :func:`encode_image`.

The run-wide settings (:class:`~repro.brace.worker.ShardSettings`) ride the
:class:`ShardSeed`, so the per-tick commands carry only the tick and deltas.

The protocol is the same on every executor; only the transport differs.
The serial and thread executors hand these commands and results over **by
reference** (the shards hold the world's own agents; replicas travel as full
clones).  The process and cluster executors ship them as **columnar frames**
(:mod:`repro.ipc.frames`; replicas travel as
:class:`~repro.ipc.frames.ReplicaDelta` rows) — which is why every function
here is module-level, every command/result dataclass is picklable, and the
bottom of this module registers how each one packs.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import Any

from repro.brace.worker import DistributionResult, ShardSettings, Worker
from repro.core.agent import Agent
from repro.core.errors import CheckpointError
from repro.core.soa import pack_cells, unpack_cells
from repro.ipc import frames as ipc_frames
from repro.spatial.partitioning import Partition, SpatialPartitioning


# ---------------------------------------------------------------------------
# Commands (driver -> shard) and results (shard -> driver)
# ---------------------------------------------------------------------------


@dataclass
class ShardSeed:
    """Initial payload hosting one worker inside a shard (shipped once)."""

    partition: Partition
    partitioning: SpatialPartitioning
    agents: list[Agent]
    settings: ShardSettings


@dataclass
class BoundaryDelta:
    """Births and deaths a shard must apply at a tick boundary."""

    kill_ids: list[Any] = field(default_factory=list)
    spawn_agents: list[Agent] = field(default_factory=list)

@dataclass
class MapCommand:
    """Round 1 input: the previous tick's boundary delta (if any)."""

    boundary: BoundaryDelta | None = None


@dataclass
class QueryCommand:
    """Round 2 input: the incoming deltas.

    ``replicas_in`` is a flat list of replica clones by reference; over a
    wire it is one :class:`repro.ipc.frames.ReplicaDelta` per source shard,
    routed by the driver with its additions still packed.
    """

    migrated_in: list[Agent]
    replicas_in: Any
    tick: int


@dataclass
class QueryResult:
    """Round 2 output: non-local partials and work accounting only."""

    #: ``agent_id -> touched effect accumulators`` for hosted replicas.
    replica_partials: dict[Any, dict[str, Any]]
    work_units: float


@dataclass
class UpdateCommand:
    """Round 3 input: the routed remote partials.

    ``partials`` preserves the driver's global routing order (worker id,
    then :func:`~repro.core.ordering.agent_sort_key`), so combinator merges
    happen in the same order on every backend.
    """

    partials: list[tuple[Any, dict[str, Any]]]
    tick: int


@dataclass
class UpdateResult:
    """Round 3 output: birth/death requests only; states stay resident."""

    spawn_requests: list[tuple[Any, int, Any]]
    kill_requests: set[Any]


@dataclass
class RepartitionCommand:
    """Epoch-boundary input adopting a rebalanced partitioning."""

    partitioning: SpatialPartitioning
    partition: Partition


# ---------------------------------------------------------------------------
# Shard-side entry points (module-level, picklable by reference)
# ---------------------------------------------------------------------------


def make_resident_worker(shard_id: int, seed: ShardSeed) -> Worker:
    """Shard factory: build the resident :class:`Worker` from its seed."""
    worker = Worker(
        shard_id, seed.partition, partitioning=seed.partitioning, settings=seed.settings
    )
    for agent in seed.agents:
        worker.add_owned(agent)
    return worker


def shard_map_phase(worker: Worker, command: MapCommand) -> DistributionResult:
    """Round 1: apply the boundary delta, then distribute locally."""
    if command.boundary is not None:
        worker.apply_boundary(command.boundary.kill_ids, command.boundary.spawn_agents)
    return worker.distribute()


def shard_query_phase(worker: Worker, command: QueryCommand) -> QueryResult:
    """Round 2: install incoming deltas and run the query phase."""
    for agent in command.migrated_in:
        worker.add_owned(agent)
    if worker.settings.transport_copies:
        worker.apply_replica_deltas(command.replicas_in)
    else:
        for replica in command.replicas_in:
            worker.install_replica(replica)
    worker.run_query_phase(command.tick)
    return QueryResult(
        replica_partials=worker.touched_replica_partials(),
        work_units=worker.last_query_work_units,
    )


def shard_update_phase(worker: Worker, command: UpdateCommand) -> UpdateResult:
    """Round 3: merge routed partials (in order) and run the update phase."""
    for agent_id, partials in command.partials:
        worker.merge_remote_partials(agent_id, partials)
    context = worker.run_update_phase(command.tick)
    return UpdateResult(
        spawn_requests=context.spawn_requests,
        kill_requests=context.kill_requests,
    )


def shard_apply_boundary(worker: Worker, delta: BoundaryDelta) -> int:
    """Flush a pending boundary delta outside the tick loop (epoch events)."""
    return worker.apply_boundary(delta.kill_ids, delta.spawn_agents)


def shard_collect_states(worker: Worker, _payload: Any = None) -> dict[Any, dict[str, Any]]:
    """Pull every owned agent's state (driver sync)."""
    return worker.collect_states()


def shard_collect_coordinates(worker: Worker, axis: int) -> list[float]:
    """Pull owned positions along the balancing axis (epoch statistics)."""
    return worker.collect_coordinates(axis)


def shard_adopt_partitioning(
    worker: Worker, command: RepartitionCommand
) -> dict[int, list[Agent]]:
    """Adopt a rebalanced partitioning; return agents leaving this shard."""
    return worker.adopt_partitioning(command.partitioning, command.partition)


def shard_install_owned(worker: Worker, agents: list[Agent]) -> int:
    """Install agents migrated in by a repartitioning; returns the owned count."""
    return worker.install_owned(agents)


#: Images a resident shard keeps in its stash: two covers a capture that
#: failed while the previous checkpoint is still the latest restorable one.
STASH_KEEP = 2


def shard_capture(worker: Worker, command: tuple[int, BoundaryDelta | None]) -> bytes:
    """Apply the ``(tag, pending boundary delta)`` command's delta, then
    capture this shard's state image, stash it under ``tag`` and return it.

    The driver's checkpoint and the shard then hold the same bytes: after
    another node dies, this surviving shard rewinds from its stash in place
    (:func:`shard_rewind`) instead of being re-shipped.
    """
    tag, boundary = command
    if boundary is not None:
        worker.apply_boundary(boundary.kill_ids, boundary.spawn_agents)
    image = encode_image(worker.migration_seed(), local_classes=True)
    stash = worker.checkpoint_stash
    stash[tag] = image
    while len(stash) > STASH_KEEP:
        stash.pop(next(iter(stash)))
    return image


def shard_rewind(worker: Worker, tag: int) -> bool:
    """Rewind this shard, in place, to the image stashed under ``tag``.

    Returns False when the tag is not stashed (the caller then re-seeds
    every shard from the checkpoint's images).  On a hit the worker's whole
    ``__dict__`` is swapped for a fresh :func:`make_resident_worker` build,
    a re-seed that never crosses the wire and stays correct for any future
    :class:`Worker` field.  The stash survives the swap: the same checkpoint
    may be restored again after a second failure.
    """
    stash = worker.checkpoint_stash
    image = stash.get(tag)
    if image is None:
        return False
    fresh = make_resident_worker(worker.worker_id, decode_image(image))
    worker.__dict__.clear()
    worker.__dict__.update(fresh.__dict__)
    worker.checkpoint_stash = stash
    return True


# ---------------------------------------------------------------------------
# The state image: a checkpoint's, a stash's, a migrating or seeded shard's
# ---------------------------------------------------------------------------

_IMAGE_CODEC = ipc_frames.ColumnarCodec()
#: Format tag, then the CRC-32 of the codec bytes that follow.
_IMAGE_HEADER = struct.Struct(">4sI")
_IMAGE_MAGIC = b"SIM1"


def encode_image(seed: Any, local_classes: bool = False) -> bytes:
    """Encode a shard seed (a :class:`ShardSeed` for BRACE) as its image.

    ``local_classes`` admits agent classes the codec cannot name by module
    path (a factory's), which only an in-process shard can hold.
    """
    body = _IMAGE_CODEC.encode(seed, local_classes)
    return _IMAGE_HEADER.pack(_IMAGE_MAGIC, zlib.crc32(body)) + body


def decode_image(image: bytes) -> Any:
    """The exact seed :func:`encode_image` encoded; a truncated or altered
    image raises :class:`~repro.core.errors.CheckpointError`, never a codec
    error."""
    try:
        magic, checksum = _IMAGE_HEADER.unpack_from(image)
        body = memoryview(image)[_IMAGE_HEADER.size :]
        if magic == _IMAGE_MAGIC and zlib.crc32(body) == checksum:
            return _IMAGE_CODEC.decode(body, local_classes=True)
    except Exception as error:  # noqa: BLE001 - truncated, or a local class of another process
        raise CheckpointError(f"a shard image does not decode: {error!r}") from error
    raise CheckpointError("a shard image is damaged: its checksum does not match")


# ---------------------------------------------------------------------------
# Columnar wire transforms
# ---------------------------------------------------------------------------
# The protocol types above register how their bulk payloads pack into the
# columnar delta frames of :mod:`repro.ipc.frames`.  The registrations live
# here — with the types they describe — so the codec never imports upward,
# and importing this module (which both driver and shard hosts do to name
# the shard entry points) is what arms the codec on each side.


def _pack_agent_map(agent_map: dict) -> list:
    """Pack ``destination -> agents`` into ``(destination, frame)`` pairs."""
    return [(key, ipc_frames.pack_agents(agents)) for key, agents in agent_map.items()]


def _unpack_agent_map(payload: list) -> dict:
    return {key: ipc_frames.unpack_agents(frame) for key, frame in payload}


def _pack_replica_deltas(replicas_out: dict) -> list:
    """Pack ``destination -> ReplicaDelta`` into ``(destination, additions
    frame, removed ids, refresh groups)`` entries.

    Parts holding the *same rows* — what ``distribute`` produces when an
    agent replicates to every neighbour — are packed once and shared, so
    both the pack pass and the encoded bytes scale with distinct agents, not
    with ``agents × destinations`` (the codec's memo dedupes the shared
    frame's buffers on the wire).  Refresh rows are recognized by their
    value tuples, which ``distribute`` builds once per agent.
    """
    memo: dict = {}
    payload = []
    for key, delta in replicas_out.items():
        identity = tuple(map(id, delta.additions))
        frame = memo.get(identity)
        if frame is None:
            frame = memo[identity] = ipc_frames.pack_agents(delta.additions)
        refreshes = delta.refreshes
        if refreshes:
            identity = tuple(
                (group, tuple(map(id, rows))) for group, (_, rows) in refreshes.items()
            )
            packed = memo.get(identity)
            if packed is None:
                packed = memo[identity] = ipc_frames.pack_refreshes(refreshes)
        else:
            packed = []
        payload.append((key, frame, pack_cells(delta.removed_ids), packed))
    return payload


def _lazy_delta(frame, removed, refreshes) -> ipc_frames.ReplicaDelta:
    """Decode one replica delta without unpacking its additions.

    The driver only routes replica deltas per destination, so the frames
    stay packed end-to-end and are re-emitted verbatim into the next query
    command (see :class:`repro.ipc.frames.LazyAgentFrame`); the refresh
    groups are applied by the destination straight from their columns.
    """
    return ipc_frames.ReplicaDelta(
        ipc_frames.LazyAgentFrame(frame), unpack_cells(removed), refreshes
    )


def _lazy_replica_deltas(payload: list) -> dict:
    return {key: _lazy_delta(*delta) for key, *delta in payload}


def _pack_routed_deltas(deltas: list) -> list:
    """Pack routed replica deltas, re-emitting already-packed parts."""
    return [
        (
            delta.additions.frame
            if isinstance(delta.additions, ipc_frames.LazyAgentFrame)
            else ipc_frames.pack_agents(delta.additions),
            pack_cells(delta.removed_ids),
            delta.refreshes
            if isinstance(delta.refreshes, list)
            else ipc_frames.pack_refreshes(delta.refreshes),
        )
        for delta in deltas
    ]


def _unpack_routed_deltas(payload: list) -> list:
    return [_lazy_delta(*delta) for delta in payload]


def _encode_seed(seed: ShardSeed) -> tuple:
    return (
        seed.partition,
        seed.partitioning,
        ipc_frames.pack_agents(seed.agents),
        seed.settings,
    )


def _decode_seed(payload: tuple) -> ShardSeed:
    partition, partitioning, agents, settings = payload
    return ShardSeed(partition, partitioning, ipc_frames.unpack_agents(agents), settings)


def _encode_boundary(delta: BoundaryDelta) -> tuple:
    return (
        pack_cells(delta.kill_ids),
        ipc_frames.pack_agents(delta.spawn_agents),
    )


def _decode_boundary(payload: tuple) -> BoundaryDelta:
    kill_ids, spawn_agents = payload
    return BoundaryDelta(unpack_cells(kill_ids), ipc_frames.unpack_agents(spawn_agents))


def _encode_map_command(command: MapCommand) -> tuple | None:
    boundary = command.boundary
    return None if boundary is None else _encode_boundary(boundary)


def _decode_map_command(payload: tuple | None) -> MapCommand:
    return MapCommand(None if payload is None else _decode_boundary(payload))


def _encode_distribution(result: DistributionResult) -> tuple:
    return (
        _pack_agent_map(result.migrations_out),
        _pack_replica_deltas(result.replicas_out),
        result.migration_pair_bytes,
        result.replication_pair_bytes,
        result.agents_migrated,
        result.replicas_created,
    )


def _decode_distribution(payload: tuple) -> DistributionResult:
    migrations, replicas, migration_bytes, replication_bytes, migrated, created = payload
    return DistributionResult(
        _unpack_agent_map(migrations),
        _lazy_replica_deltas(replicas),
        migration_bytes,
        replication_bytes,
        migrated,
        created,
    )


def _encode_query_command(command: QueryCommand) -> tuple:
    return (
        ipc_frames.pack_agents(command.migrated_in),
        _pack_routed_deltas(command.replicas_in),
        command.tick,
    )


def _decode_query_command(payload: tuple) -> QueryCommand:
    migrated_in, replica_deltas, tick = payload
    return QueryCommand(
        ipc_frames.unpack_agents(migrated_in), _unpack_routed_deltas(replica_deltas), tick
    )


def _encode_query_result(result: QueryResult) -> tuple:
    return (
        ipc_frames.pack_mapping_rows(list(result.replica_partials.items())),
        result.work_units,
    )


def _decode_query_result(payload: tuple) -> QueryResult:
    partials, work_units = payload
    return QueryResult(dict(ipc_frames.unpack_mapping_rows(partials)), work_units)


def _encode_update_command(command: UpdateCommand) -> tuple:
    return (ipc_frames.pack_mapping_rows(command.partials), command.tick)


def _decode_update_command(payload: tuple) -> UpdateCommand:
    partials, tick = payload
    return UpdateCommand(ipc_frames.unpack_mapping_rows(partials), tick)


def _encode_update_result(result: UpdateResult) -> tuple:
    parents = pack_cells([parent for parent, _, _ in result.spawn_requests])
    sequences = pack_cells([sequence for _, sequence, _ in result.spawn_requests])
    children = ipc_frames.pack_agents([child for _, _, child in result.spawn_requests])
    return (parents, sequences, children, list(result.kill_requests))


def _decode_update_result(payload: tuple) -> UpdateResult:
    parents, sequences, children, kill_requests = payload
    spawn_requests = list(
        zip(
            unpack_cells(parents),
            unpack_cells(sequences),
            ipc_frames.unpack_agents(children),
        )
    )
    return UpdateResult(spawn_requests, set(kill_requests))


ipc_frames.register_wire_type(ShardSeed, "shard-seed", _encode_seed, _decode_seed)
ipc_frames.register_wire_type(
    BoundaryDelta, "boundary-delta", _encode_boundary, _decode_boundary
)
ipc_frames.register_wire_type(
    MapCommand, "map-command", _encode_map_command, _decode_map_command
)
ipc_frames.register_wire_type(
    DistributionResult, "distribution", _encode_distribution, _decode_distribution
)
ipc_frames.register_wire_type(
    QueryCommand, "query-command", _encode_query_command, _decode_query_command
)
ipc_frames.register_wire_type(
    QueryResult, "query-result", _encode_query_result, _decode_query_result
)
ipc_frames.register_wire_type(
    UpdateCommand, "update-command", _encode_update_command, _decode_update_command
)
ipc_frames.register_wire_type(
    UpdateResult, "update-result", _encode_update_result, _decode_update_result
)
