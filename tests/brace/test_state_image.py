"""One state image: a shard's codec-encoded seed is its checkpoint.

Checkpoints, pause points, the shard-local stash and shard migration all
carry the same bytes (:func:`repro.brace.shards.encode_image`), and
``recover()`` and ``resume()`` restore through one path that takes each
agent's owner from the image holding it.  So a paused or recovered run is
not merely state-identical to the uninterrupted one: its per-tick
statistics — migrations still pending at the capture included — and its
virtual time match bit for bit.
"""

import math
import pickle
import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import Simulation
from repro.brace.config import BraceConfig
from repro.brace.runtime import BraceRuntime
from repro.brace.shards import ShardSeed, decode_image, encode_image
from repro.brace.worker import ShardSettings
from repro.core.agent import Agent
from repro.core.errors import CheckpointError
from repro.core.fields import StateField
from repro.core.soa import states_equal
from repro.simulations.traffic.workload import build_traffic_world
from repro.spatial.bbox import BBox
from repro.spatial.partitioning import StripPartitioning

SEED = 11
VEHICLES = 200
TOTAL_TICKS = 9
PAUSE_TICK = 5


def _rows(ticks) -> dict:
    """``tick -> the statistics a restore used to perturb``, virtual time by
    its bits; a re-executed tick keeps its last run."""
    return {
        stats.tick: (
            stats.agents_migrated,
            stats.bytes_migrated,
            stats.bytes_replicated,
            stats.virtual_seconds.hex(),
        )
        for stats in ticks
    }


def _session(executor: str) -> Simulation:
    return (
        Simulation.from_agents(build_traffic_world(seed=SEED, num_vehicles=VEHICLES))
        .with_workers(3)
        .with_executor(executor, max_workers=2)
        .with_epochs(2)
    )


def _config(**overrides) -> BraceConfig:
    settings = dict(num_workers=3, ticks_per_epoch=2, checkpointing=True)
    return BraceConfig(**{**settings, **overrides})


@pytest.fixture(scope="module")
def uninterrupted():
    with _session("serial") as session:
        session.run(TOTAL_TICKS)
        rows = _rows(session.metrics.ticks)
    # The capture must fall where migrations are pending, or the rows
    # below could not tell a by-position restore from the right one.
    assert rows[PAUSE_TICK][0] > 0
    return rows


@pytest.mark.parametrize("executor", ["serial", "thread", "process"])
def test_pause_resume_keeps_every_tick_statistic(executor, uninterrupted):
    with _session(executor) as session:
        session.run(PAUSE_TICK)
        session.pause()
        session.resume()
        session.run(TOTAL_TICKS - PAUSE_TICK)
        assert _rows(session.metrics.ticks) == uninterrupted


def test_full_path_recover_keeps_every_tick_statistic():
    reference = build_traffic_world(seed=SEED, num_vehicles=VEHICLES)
    with BraceRuntime(reference, _config()) as runtime:
        runtime.run(TOTAL_TICKS)
        expected = _rows(runtime.metrics.ticks)

    world = build_traffic_world(seed=SEED, num_vehicles=VEHICLES)
    with BraceRuntime(world, _config()) as runtime:
        runtime.run(PAUSE_TICK)  # checkpoints at ticks 2 and 4
        assert runtime.recover() == 1
        (recovered,) = runtime.fault_events
        assert recovered["partial"] is False  # in process: the full path
        runtime.run(TOTAL_TICKS - world.tick)
        assert _rows(runtime.metrics.ticks) == expected
    assert world.same_state_as(reference)


def test_recover_reinstates_the_checkpoint_partitioning():
    """A rebalance after the checkpoint is undone with the lost ticks."""
    config = _config(checkpoint_interval_epochs=2, load_balance_threshold=1.0)
    reference = build_traffic_world(seed=SEED, num_vehicles=VEHICLES)
    with BraceRuntime(reference, config) as runtime:
        runtime.run(TOTAL_TICKS)
        expected = _rows(runtime.metrics.ticks)

    world = build_traffic_world(seed=SEED, num_vehicles=VEHICLES)
    with BraceRuntime(world, config) as runtime:
        runtime.run(7)  # checkpoint at tick 4, a rebalance at tick 6
        assert runtime.master.checkpoint_manager.latest().tick == 4
        assert runtime.master.rebalances_performed() == 1
        cuts = runtime.master.partitioning.boundaries
        runtime.recover()
        assert runtime.master.partitioning.boundaries != cuts
        runtime.run(TOTAL_TICKS - world.tick)
        assert _rows(runtime.metrics.ticks) == expected
    assert world.same_state_as(reference)


# ----------------------------------------------------------------------
# The image codec
# ----------------------------------------------------------------------
class Cell(Agent):
    """An agent whose cells span what the image must carry exactly."""

    x = StateField(0.0, spatial=True, visibility=1.0, reachability=1.0)
    real = StateField(0.0)
    whole = StateField(0)
    flag = StateField(False)
    path = StateField(None)

    def query(self, ctx):
        pass

    def update(self, ctx):
        pass


_FLOATS = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf]),
    # NaNs with arbitrary payloads and either sign.
    st.integers(0, 2**52 - 1).map(
        lambda payload: struct.unpack(">d", struct.pack(">Q", 0x7FF8000000000000 | payload))[0]
    ),
    st.integers(0, 2**52 - 1).map(
        lambda payload: struct.unpack(">d", struct.pack(">Q", 0xFFF8000000000000 | payload))[0]
    ),
)
_ROWS = st.lists(
    st.tuples(
        _FLOATS,
        st.one_of(st.integers(), st.integers(2**53, 2**80), st.integers(-(2**80), -(2**53))),
        st.booleans(),
        st.one_of(st.none(), st.lists(st.integers(-5, 5), max_size=3), _FLOATS),
    ),
    min_size=1,
    max_size=6,
)

BOUNDS = BBox(((0.0, 10.0),))


def _seed(rows) -> ShardSeed:
    partitioning = StripPartitioning.uniform(BOUNDS, 0, 2)
    agents = [
        Cell(agent_id=index, x=float(index % 10), real=real, whole=whole, flag=flag, path=path)
        for index, (real, whole, flag, path) in enumerate(rows)
    ]
    return ShardSeed(partitioning.partition(0), partitioning, agents, ShardSettings())


def _states(agents) -> dict:
    return {agent.agent_id: agent.state_dict() for agent in agents}


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=_ROWS)
def test_an_image_round_trips_every_cell_exactly(rows):
    seed = _seed(rows)
    decoded = decode_image(encode_image(seed))
    assert states_equal(_states(decoded.agents), _states(seed.agents))
    assert [type(agent) for agent in decoded.agents] == [Cell] * len(rows)
    assert decoded.partition == seed.partition


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=_ROWS, data=st.data())
def test_a_damaged_image_raises_the_checkpoint_error(rows, data):
    image = encode_image(_seed(rows))
    if data.draw(st.booleans(), label="truncate"):
        damaged = image[: data.draw(st.integers(0, len(image) - 1), label="keep")]
    else:
        bit = data.draw(st.integers(0, len(image) * 8 - 1), label="bit")
        damaged = bytearray(image)
        damaged[bit // 8] ^= 1 << (bit % 8)
        damaged = bytes(damaged)
    with pytest.raises(CheckpointError):
        decode_image(damaged)


def test_an_in_process_capture_names_a_class_pickle_cannot_find():
    class Local(Cell):  # defined in a function: pickle cannot name it
        pass

    partitioning = StripPartitioning.uniform(BOUNDS, 0, 1)
    seed = ShardSeed(
        partitioning.partition(0), partitioning, [Local(agent_id=0, x=1.0)], ShardSettings()
    )
    with pytest.raises((pickle.PicklingError, AttributeError)):
        encode_image(seed)  # what a wire ships must name its classes
    (agent,) = decode_image(encode_image(seed, local_classes=True)).agents
    assert type(agent) is Local and agent.x == 1.0
