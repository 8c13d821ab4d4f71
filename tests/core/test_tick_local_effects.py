"""Effects stay inside their tick.

An effect is written in a tick's query phase, folded by its combinator and
read by the same tick's update phase; nothing after that reads it.  Two
rules follow, and these tests pin both:

* the touched mark is the one record of a live accumulator: every write
  that can move an accumulator off its identity marks its field, a raw
  assignment between ticks included, so an agent with no touched field
  holds identities;
* whatever crosses a boundary between ticks — a columnar frame, a shard's
  state image, a ``clone()`` — carries an agent's id and state, and the
  receiver starts every accumulator at identity, untouched, with a mutable
  identity of its own.
"""

import math
import pickle

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.brace.config import BraceConfig
from repro.brace.runtime import BraceRuntime
from repro.brace.shards import ShardSeed, decode_image, encode_image
from repro.brace.worker import ShardSettings, Worker
from repro.core.agent import Agent, identity_effects
from repro.core.combinators import COLLECT, MIN, SUM, Combinator
from repro.core.fields import EffectField, StateField
from repro.core.phase import Phase, phase, set_enforcement
from repro.core.world import World
from repro.ipc.frames import pack_agents, unpack_agents
from repro.spatial.bbox import BBox
from repro.spatial.partitioning import StripPartitioning

from tests.conftest import Boid

#: A combinator that collects into a *mutable* list identity.
BAG = Combinator(
    "tick-local-bag", list, lambda acc, value: acc + [value], merge_fn=lambda a, b: a + b
)

BOUNDS = BBox(((0.0, 40.0), (0.0, 40.0)))


class Keeper(Agent):
    """Immutable identities (a float, ``inf``, ``COLLECT``'s tuple) and a
    mutable one (``bag``), declared interleaved."""

    x = StateField(0.0, spatial=True, visibility=4.0)
    y = StateField(0.0, spatial=True, visibility=4.0)
    total = EffectField(SUM)
    bag = EffectField(BAG)
    least = EffectField(MIN)
    seen = EffectField(COLLECT)


def _assert_at_identity(agent) -> None:
    expected = identity_effects(type(agent))
    assert agent._effects_touched == set()
    assert list(agent._effects) == list(expected) == list(type(agent)._effect_fields)
    for name, value in agent._effects.items():
        assert type(value) is type(expected[name]), name
        if type(value) is float:
            assert math.copysign(1.0, value) == math.copysign(1.0, expected[name]), name
        assert value == expected[name], name


def _carrying_agents() -> list:
    """Agents holding live accumulators, every way one can be written."""
    queried = Keeper(agent_id=0, x=1.0, y=2.0)
    with phase(Phase.QUERY):
        queried.total = 2.5
        queried.bag = "seen"
        queried.seen = 7
    raw = Keeper(agent_id=1, x=3.0, y=4.0)
    raw.total = -0.0  # a raw write, off identity by the sign bit alone
    raw.least = 1.0
    merged = Keeper(agent_id=2, x=5.0, y=6.0)
    merged.merge_effect_partials({"bag": ["routed"], "least": -3.0})
    quiet = Keeper(agent_id=3, x=7.0, y=8.0)
    return [queried, raw, merged, quiet]


def _assert_decoded_at_identity(originals, decoded) -> None:
    assert [agent.agent_id for agent in decoded] == [agent.agent_id for agent in originals]
    for original, agent in zip(originals, decoded):
        assert agent.same_state_as(original)
        _assert_at_identity(agent)
        assert agent._effects["bag"] is not original._effects["bag"]
    bags = [agent._effects["bag"] for agent in decoded]
    assert len({id(bag) for bag in bags}) == len(bags)
    decoded[0]._effects["bag"].append("leak")
    assert all(bag == [] for bag in bags[1:])


# ----------------------------------------------------------------------
# The touched mark is the one record
# ----------------------------------------------------------------------
class TestTouchedMark:
    def test_raw_write_marks_its_field_touched(self):
        agent = Keeper()
        agent.total = 3.0
        assert agent._effects_touched == {"total"}
        agent.least = math.inf  # at identity, and still a write
        assert agent._effects_touched == {"total", "least"}
        agent.reset_effects()
        _assert_at_identity(agent)

    def test_unenforced_update_write_marks_its_field_touched(self):
        agent = Keeper()
        set_enforcement(False)
        try:
            with phase(Phase.UPDATE):
                agent.total = 4.0
        finally:
            set_enforcement(True)
        assert agent._effects_touched == {"total"}
        assert agent._effects["total"] == 4.0

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["query", "raw", "partials", "merge", "reset"]),
                st.sampled_from(["total", "bag", "least", "seen"]),
                st.floats(-5.0, 5.0, allow_nan=False),
            ),
            max_size=12,
        )
    )
    def test_untouched_means_at_identity(self, writes):
        agent = Keeper()
        for kind, name, value in writes:
            # A raw or routed cell has the accumulator's own shape.
            cell = [value] if name == "bag" else (value,) if name == "seen" else value
            if kind == "query":
                with phase(Phase.QUERY):
                    setattr(agent, name, value)
            elif kind == "raw":
                setattr(agent, name, cell)
            elif kind == "partials":
                agent.set_effect_partials({name: cell})
            elif kind == "merge":
                agent.merge_effect_partials({name: cell})
            else:
                agent.reset_effects()
            identities = identity_effects(Keeper)
            for field in Keeper._effect_fields:
                if field not in agent._effects_touched:
                    assert agent._effects[field] == identities[field]

    def test_add_owned_resets_a_touched_arrival(self):
        partitioning = StripPartitioning.uniform(BOUNDS, 0, 1)
        worker = Worker(0, partitioning.partition(0), partitioning=partitioning)
        for agent in _carrying_agents():
            worker.add_owned(agent)
        for agent in worker.owned.values():
            _assert_at_identity(agent)


# ----------------------------------------------------------------------
# Frames, images and clones carry only state
# ----------------------------------------------------------------------
class TestBoundaries:
    def test_frames_decode_every_accumulator_at_identity(self):
        agents = _carrying_agents()
        frame = pickle.loads(pickle.dumps(pack_agents(agents)))
        _assert_decoded_at_identity(agents, unpack_agents(frame))

    def test_state_images_decode_every_accumulator_at_identity(self):
        agents = _carrying_agents()
        partitioning = StripPartitioning.uniform(BOUNDS, 0, 1)
        seed = ShardSeed(partitioning.partition(0), partitioning, agents, ShardSettings())
        _assert_decoded_at_identity(agents, decode_image(encode_image(seed)).agents)

    def test_clone_starts_every_accumulator_at_identity(self):
        agents = _carrying_agents()
        clones = [agent.clone() for agent in agents]
        _assert_decoded_at_identity(agents, clones)
        # The originals keep what their tick wrote.
        assert agents[0]._effects["bag"] == ["seen"]
        assert agents[0]._effects_touched == {"total", "bag", "seen"}


def _images(worker, _payload=None) -> tuple:
    """Shard task: how many owned agents carry a live accumulator, and the
    shard's image before and after resetting every owned agent's effects."""
    touched = sum(bool(agent._effects_touched) for agent in worker.owned.values())
    before = encode_image(worker.migration_seed())
    for agent in worker.owned.values():
        agent.reset_effects()
    return touched, before, encode_image(worker.migration_seed())


def test_shard_image_after_a_tick_equals_the_image_after_reset():
    rng = np.random.default_rng(5)
    world = World(bounds=BOUNDS, seed=5)
    for _ in range(60):
        x, y = (float(value) for value in rng.uniform(10.0, 30.0, 2))
        world.add_agent(Boid(x=x, y=y))
    config = BraceConfig(num_workers=2, executor="serial", load_balance=False)
    with BraceRuntime(world, config) as runtime:
        runtime.run(2)
        results = runtime.executor.run_sharded_tasks(
            [(shard, _images, None) for shard in range(config.num_workers)]
        )
    assert sum(result.value[0] for result in results) > 0  # live accumulators
    for result in results:
        _, before, after = result.value
        assert before == after
