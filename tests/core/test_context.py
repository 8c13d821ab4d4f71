"""Tests for the query and update contexts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.agent import Agent
from repro.core.context import QueryContext, UpdateContext, agent_rng
from repro.core.errors import VisibilityError, WorldError
from repro.core.fields import StateField
from repro.core.ordering import agent_sort_key

from tests.conftest import Boid, make_boid_world


def brute_force_neighbors(agents, probe, radius):
    result = []
    for other in agents:
        if other is probe:
            continue
        distance = math.dist(other.position(), probe.position())
        if distance <= radius:
            result.append(other)
    return result


class TestNeighborQueries:
    @pytest.mark.parametrize("index", [None, "kdtree", "grid", "quadtree"])
    def test_neighbors_match_brute_force(self, index):
        world = make_boid_world(num_agents=50, seed=9)
        agents = world.agents()
        context = QueryContext(agents, tick=0, seed=0, index=index, cell_size=6.0)
        for probe in agents[:10]:
            expected = brute_force_neighbors(agents, probe, 6.0)
            actual = context.neighbors(probe, 6.0)
            assert sorted(a.agent_id for a in actual) == sorted(a.agent_id for a in expected)

    def test_default_radius_uses_visibility(self):
        world = make_boid_world(num_agents=20)
        agents = world.agents()
        context = QueryContext(agents, tick=0, seed=0)
        probe = agents[0]
        assert sorted(a.agent_id for a in context.neighbors(probe)) == sorted(
            a.agent_id for a in brute_force_neighbors(agents, probe, 10.0)
        )

    def test_radius_beyond_visibility_raises(self):
        world = make_boid_world(num_agents=5)
        context = QueryContext(world.agents(), tick=0, seed=0)
        with pytest.raises(VisibilityError):
            context.neighbors(world.agents()[0], 50.0)

    def test_visibility_check_can_be_disabled(self):
        world = make_boid_world(num_agents=5)
        context = QueryContext(world.agents(), tick=0, seed=0, check_visibility=False)
        context.neighbors(world.agents()[0], 50.0)  # does not raise

    def test_include_self(self):
        world = make_boid_world(num_agents=5)
        agents = world.agents()
        context = QueryContext(agents, tick=0, seed=0)
        probe = agents[0]
        assert probe in context.neighbors(probe, 6.0, include_self=True)
        assert probe not in context.neighbors(probe, 6.0)

    def test_visible_uses_box_semantics(self):
        world = make_boid_world(num_agents=30, seed=4)
        agents = world.agents()
        context = QueryContext(agents, tick=0, seed=0)
        probe = agents[0]
        region = probe.visible_region()
        expected = [a for a in agents if a is not probe and region.contains_point(a.position())]
        assert sorted(a.agent_id for a in context.visible(probe)) == sorted(
            a.agent_id for a in expected
        )

    def test_nearest(self):
        world = make_boid_world(num_agents=30, seed=2)
        agents = world.agents()
        context = QueryContext(agents, tick=0, seed=0)
        probe = agents[0]
        nearest = context.nearest(probe, k=3)
        distances = [math.dist(a.position(), probe.position()) for a in nearest]
        assert distances == sorted(distances)
        assert probe not in nearest

    def test_agents_returns_full_extent(self):
        world = make_boid_world(num_agents=7)
        context = QueryContext(world.agents(), tick=0, seed=0)
        assert len(context.agents()) == 7
        assert len(context) == 7

    def test_work_units_accumulate(self):
        world = make_boid_world(num_agents=20)
        context = QueryContext(world.agents(), tick=0, seed=0)
        context.neighbors(world.agents()[0], 6.0)
        assert context.work_units > 0

    def test_unknown_index_rejected(self):
        world = make_boid_world(num_agents=3)
        with pytest.raises(WorldError):
            QueryContext(world.agents(), tick=0, seed=0, index="rtree")


class TestRandomStreams:
    def test_agent_rng_is_deterministic(self):
        first = agent_rng(1, 2, 3).random(5)
        second = agent_rng(1, 2, 3).random(5)
        assert np.allclose(first, second)

    def test_agent_rng_differs_across_agents_and_ticks(self):
        base = agent_rng(1, 2, 3).random()
        assert agent_rng(1, 2, 4).random() != base
        assert agent_rng(1, 3, 3).random() != base
        assert agent_rng(2, 2, 3).random() != base

    def test_tuple_agent_ids_supported(self):
        assert agent_rng(0, 0, (1, 2)).random() == agent_rng(0, 0, (1, 2)).random()

    def test_query_and_update_streams_differ(self):
        world = make_boid_world(num_agents=2)
        agent = world.agents()[0]
        query_context = QueryContext(world.agents(), tick=5, seed=7)
        update_context = UpdateContext(tick=5, seed=7)
        assert query_context.rng(agent).random() != update_context.rng(agent).random()


class TestUpdateContext:
    def test_spawn_requests_record_parent_and_sequence(self):
        context = UpdateContext(tick=0, seed=0)
        parent = Boid(agent_id=4)
        first_child, second_child = Boid(), Boid()
        context.spawn(parent, first_child)
        context.spawn(parent, second_child)
        requests = context.spawn_requests
        assert [(parent_id, sequence) for parent_id, sequence, _ in requests] == [(4, 0), (4, 1)]

    def test_kill_requests_deduplicate(self):
        context = UpdateContext(tick=0, seed=0)
        agent = Boid(agent_id=9)
        context.kill(agent)
        context.kill(agent)
        assert context.kill_requests == {9}

    def test_merge_combines_requests(self):
        first = UpdateContext(tick=0, seed=0)
        second = UpdateContext(tick=0, seed=0)
        first.spawn(Boid(agent_id=1), Boid())
        second.kill(Boid(agent_id=2))
        first.merge(second)
        assert len(first.spawn_requests) == 1
        assert first.kill_requests == {2}


# ---------------------------------------------------------------------------
# visible_pairs: the set-at-a-time form of visible()
# ---------------------------------------------------------------------------
class Near(Agent):
    x = StateField(0.0, spatial=True, visibility=2.0)
    y = StateField(0.0, spatial=True, visibility=2.0)


class Far(Agent):
    x = StateField(0.0, spatial=True, visibility=5.0)
    y = StateField(0.0, spatial=True, visibility=3.0)


class Everywhere(Agent):
    x = StateField(0.0, spatial=True, visibility=None)
    y = StateField(0.0, spatial=True, visibility=None)


class Inverted(Agent):
    x = StateField(0.0, spatial=True, visibility=-1.0)
    y = StateField(0.0, spatial=True, visibility=1.0)


#: A coarse lattice makes coincident points and on-the-boundary matches
#: common; 40.0 / -1e6 sit outside any world box the cluster would suggest.
_COORDINATES = st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 5.0, 5.5, 8.0, 40.0, -1e6])


@st.composite
def extents(draw, classes=(Near, Far), allow_nan=False):
    """``(agents, probes)``: a shuffled mixed-class extent and a probe subset.

    Agents left out of ``probes`` play the replicas of a worker's extent (in
    the extent, never probing) and the lanes a ``foreach`` under ``if``
    masks off.
    """
    count = draw(st.integers(min_value=1, max_value=14))
    ids = draw(st.permutations(range(count)))
    agents = []
    for agent_id in ids:
        cls = draw(st.sampled_from(classes))
        agents.append(cls(agent_id=agent_id, x=draw(_COORDINATES), y=draw(_COORDINATES)))
    if allow_nan:
        agents[draw(st.integers(0, count - 1))]._state["x"] = float("nan")
    probes = [agent for agent in agents if draw(st.booleans())]
    return agents, probes


def _looped(context, probes):
    """What one ``visible()`` call per probe returns, as ``(probe, match)`` ids."""
    return [
        (index, match.agent_id)
        for index, probe in enumerate(probes)
        for match in context.visible(probe)
    ]


def _paired(context, agents, probes):
    canonical = sorted(agents, key=lambda agent: agent_sort_key(agent.agent_id))
    pair_probe, pair_rows = context.visible_pairs(probes)
    assert pair_probe.dtype == pair_rows.dtype == np.intp
    return [
        (probe, canonical[row].agent_id)
        for probe, row in zip(pair_probe.tolist(), pair_rows.tolist())
    ]


def _assert_pairs_equal_loop(agents, probes, **options):
    loop = QueryContext(agents, tick=0, seed=0, **options)
    batch = QueryContext(agents, tick=0, seed=0, **options)
    try:
        expected = _looped(loop, probes)
    except ValueError:
        # A NaN coordinate voids the vectorized grid's cell size: both forms
        # refuse the same way rather than one of them guessing.
        with pytest.raises(ValueError):
            batch.visible_pairs(probes)
        return
    assert _paired(batch, agents, probes) == expected
    assert (batch.work_units, batch.index_probes) == (loop.work_units, loop.index_probes)


class TestVisiblePairs:
    @settings(max_examples=150, deadline=None)
    @given(extents(), st.sampled_from(["kdtree", "grid", None]))
    def test_vectorized_pairs_equal_looped_visible(self, extent, index):
        agents, probes = extent
        _assert_pairs_equal_loop(agents, probes, index=index, spatial_backend="vectorized")

    @settings(max_examples=100, deadline=None)
    @given(extents(), st.sampled_from(["kdtree", "grid", "quadtree", None]))
    def test_python_backend_pairs_equal_looped_visible(self, extent, index):
        # N < 64 resolves to the python backend on its own; index=None is
        # the un-indexed nested-loop baseline.
        agents, probes = extent
        context = QueryContext(agents, tick=0, seed=0, index=index)
        assert context.spatial_backend == "python"
        _assert_pairs_equal_loop(agents, probes, index=index)

    @settings(max_examples=60, deadline=None)
    @given(extents(classes=(Near, Far, Everywhere)), st.sampled_from(["python", "vectorized"]))
    def test_unbounded_probes_take_the_same_route(self, extent, backend):
        agents, probes = extent
        _assert_pairs_equal_loop(agents, probes, spatial_backend=backend)

    @settings(max_examples=60, deadline=None)
    @given(extents(allow_nan=True), st.sampled_from(["python", "vectorized"]))
    def test_nan_coordinate(self, extent, backend):
        agents, probes = extent
        _assert_pairs_equal_loop(agents, probes, index=None, spatial_backend=backend)

    @settings(max_examples=60, deadline=None)
    @given(extents(), _COORDINATES, _COORDINATES)
    def test_probe_outside_the_snapshot(self, extent, x, y):
        agents, probes = extent
        outsider = Far(agent_id=99, x=x, y=y)
        _assert_pairs_equal_loop(agents, probes + [outsider], spatial_backend="vectorized")

    def test_no_probes_no_pairs_no_charge(self):
        context = QueryContext([Near(agent_id=0)], tick=0, seed=0, spatial_backend="vectorized")
        pair_probe, pair_rows = context.visible_pairs([])
        assert len(pair_probe) == len(pair_rows) == 0
        assert (context.work_units, context.index_probes) == (0, 0)

    @pytest.mark.parametrize("backend", ["python", "vectorized"])
    def test_negative_radius_is_rejected_like_bbox_around(self, backend):
        agents = [Inverted(agent_id=0, x=1.0, y=1.0), Inverted(agent_id=1, x=1.5, y=1.0)]
        with pytest.raises(ValueError, match="low > high"):
            QueryContext(agents, 0, 0, spatial_backend=backend).visible(agents[0])
        with pytest.raises(ValueError, match="low > high"):
            QueryContext(agents, 0, 0, spatial_backend=backend).visible_pairs(agents)

    def test_probe_boxes_are_bit_identical_to_bbox_around(self):
        # 0.1 + 0.2-style coordinates: p - r and p + r must round exactly as
        # the per-agent BBox does, or boundary matches flip.
        rng = np.random.default_rng(5)
        agents = [
            (Near if i % 2 else Far)(agent_id=i, x=float(x), y=float(y))
            for i, (x, y) in enumerate(rng.uniform(0.0, 6.0, size=(120, 2)))
        ]
        # Put agents exactly on other agents' region faces.
        for target, source in ((3, 4), (10, 11), (20, 21)):
            region = agents[source].visible_region()
            agents[target]._state["x"] = region.lows[0]
            agents[target + 30]._state["y"] = region.highs[1]
        _assert_pairs_equal_loop(agents, agents, spatial_backend="vectorized")
        _assert_pairs_equal_loop(agents, agents, spatial_backend="python")
        vectorized = QueryContext(agents, 0, 0, spatial_backend="vectorized")
        python = QueryContext(agents, 0, 0, spatial_backend="python")
        assert _paired(vectorized, agents, agents) == _looped(python, agents)
        assert (vectorized.work_units, vectorized.index_probes) == (
            python.work_units,
            python.index_probes,
        )
