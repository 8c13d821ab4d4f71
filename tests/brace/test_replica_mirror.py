"""Replicas on a wire mirror their owners exactly, tick after tick.

Over a wire a destination keeps last tick's replicas and the source ships
only what changed: new rows whole, the changed cells of held rows, and
removals.  The differential here rewrites random fields every tick with the
values an identity test is most likely to get wrong — an equal-but-distinct
float, −0.0 ↔ 0.0, 1 ↔ 1.0, a list appended to in place — moves agents across
strips, and after every tick (the update round leaves replicas as the query
round saw them) reads every shard's replicas back: each must equal, under
:func:`~repro.core.soa.states_equal`, the state its owner had when the tick
began.  The regression rows pin the in-place list case end to end against
the serial executor.
"""

import copy
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.brace.config import BraceConfig
from repro.brace.runtime import BraceRuntime
from repro.core.agent import Agent
from repro.core.combinators import SUM
from repro.core.fields import EffectField, StateField
from repro.core.soa import states_equal
from repro.core.world import World
from repro.spatial.bbox import BBox

from tests.wire_double import CodecRoundTripExecutor

SIZE = 60.0
BOUNDS = BBox(((0.0, SIZE), (0.0, SIZE)))


def rewrite(rng: random.Random, value, tick: int):
    """One random rewrite of a cell, biased to what identity must not miss."""
    if type(value) is list:
        if rng.random() < 0.75:
            value.append(float(tick))  # in place: the very same object
            return value
        return value + [float(tick)]
    op = rng.randrange(5)
    if op == 0 and type(value) is float:  # equal, same bits, another object
        return struct.unpack("<d", struct.pack("<d", value))[0]
    if op == 1:  # −0.0 ↔ 0.0
        return -0.0 if struct.pack("<d", float(value)) == struct.pack("<d", 0.0) else 0.0
    if op == 2:  # 1 ↔ 1.0
        return 1.0 if type(value) is int else 1
    if op == 3:
        return rng.uniform(-1.0, 1.0)
    return value


class Scribbler(Agent):
    """Unbounded visibility (a replica on every other shard); now and then
    drifts, and rewrites a random subset of its fields each tick."""

    x = StateField(0.0, spatial=True, visibility=None, reachability=3.0)
    y = StateField(0.0, spatial=True, visibility=None, reachability=3.0)
    a = StateField(0.0)
    b = StateField(0.0)
    n = StateField(1)
    hist = StateField(())

    def update(self, ctx):
        rng = random.Random(ctx.tick * 7919 + self.agent_id)
        state = self._state
        if rng.random() < 0.4:  # often a tick rewrites nothing but the list
            state["x"] = min(max(state["x"] + rng.uniform(-2.5, 2.5), 0.5), SIZE - 0.5)
        for name in rng.sample(("a", "b", "n", "hist"), rng.randint(0, 4)):
            state[name] = rewrite(rng, state[name], ctx.tick)


def mirror_view(worker, _payload=None) -> tuple:
    """Shard task: the owned ids and every replica's state."""
    replicas = {agent_id: replica.state_dict() for agent_id, replica in worker.replicas.items()}
    return list(worker.owned), replicas


def scribbler_world(seed: int, agents: int) -> World:
    world = World(bounds=BOUNDS, seed=seed)
    rng = random.Random(seed)
    for index in range(agents):
        world.add_agent(
            Scribbler(
                x=rng.uniform(1.0, SIZE - 1.0),
                y=rng.uniform(1.0, SIZE - 1.0),
                a=rng.choice([0.0, -0.0, 1.0, 2.5]),
                b=float("nan"),
                hist=[float(index)],
            )
        )
    return world


def start(world: World, executor: str, workers: int) -> BraceRuntime:
    config = BraceConfig(
        num_workers=workers,
        executor="serial" if executor == "codec" else executor,
        max_workers=2,
        load_balance=False,
        ticks_per_epoch=1000,
    )
    runtime = BraceRuntime(world, config)
    if executor == "codec":
        runtime.executor = CodecRoundTripExecutor()
    return runtime


def check_mirror(executor: str, seed: int, agents: int, workers: int, ticks: int) -> int:
    """Run the differential; returns how many replica rows it compared."""
    world = scribbler_world(seed, agents)
    compared = 0
    with start(world, executor, workers) as runtime:
        for _ in range(ticks):
            owners = {agent.agent_id: copy.deepcopy(agent.state_dict()) for agent in world.agents()}
            runtime.run(1)  # ends with a sync: the world is the next tick's owners
            views = runtime.executor.run_sharded_tasks(
                [(shard_id, mirror_view, None) for shard_id in range(workers)]
            )
            for view in views:
                owned, replicas = view.value
                assert set(replicas) == set(owners) - set(owned)
                assert states_equal(replicas, {i: owners[i] for i in replicas})
                compared += len(replicas)
    return compared


@given(
    seed=st.integers(0, 2**16),
    agents=st.integers(2, 8),
    workers=st.integers(2, 3),
    ticks=st.integers(2, 5),
)
@settings(max_examples=15, deadline=None)
def test_codec_wire_replicas_mirror_their_owners(seed, agents, workers, ticks):
    assert check_mirror("codec", seed, agents, workers, ticks) > 0


def test_process_replicas_mirror_their_owners():
    assert check_mirror("process", seed=5, agents=10, workers=3, ticks=6) > 0


# ----------------------------------------------------------------------
# Regression: a list mutated in place used to be shipped once and never again
# ----------------------------------------------------------------------
class Historian(Agent):
    """Appends to a list in place; everyone reads everyone's list length."""

    x = StateField(0.0, spatial=True, visibility=None)
    y = StateField(0.0, spatial=True, visibility=None)
    hist = StateField(())
    heard = EffectField(SUM)

    def query(self, ctx):
        for other in ctx.agents():
            if other is not self:
                self.heard = float(len(other.hist))

    def update(self, ctx):
        self.hist.append(self.heard)


def historian_world() -> World:
    world = World(bounds=BOUNDS, seed=3)
    for index in range(6):
        world.add_agent(Historian(x=5.0 + 10.0 * index, y=30.0, hist=[]))
    return world


def historian_states(executor: str) -> dict:
    world = historian_world()
    with start(world, executor, workers=2) as runtime:
        runtime.run(4)
    return {agent.agent_id: agent.state_dict() for agent in world.agents()}


@pytest.mark.parametrize("executor", ["codec", "process", "cluster"])
def test_list_mutated_in_place_reaches_every_replica(executor):
    expected = historian_states("serial")
    assert {tuple(state["hist"]) for state in expected.values()} == {(0.0, 5.0, 10.0, 15.0)}
    assert states_equal(historian_states(executor), expected)
