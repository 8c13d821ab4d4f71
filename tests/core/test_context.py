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
from repro.spatial.bbox import BBox

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
    @pytest.mark.parametrize("backend", ["python", "vectorized"])
    def test_neighbors_match_brute_force(self, backend):
        world = make_boid_world(num_agents=50, seed=9)
        agents = world.agents()
        context = QueryContext(agents, tick=0, seed=0, spatial_backend=backend)
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

    @pytest.mark.parametrize("backend", ["python", "vectorized"])
    def test_nearest(self, backend):
        world = make_boid_world(num_agents=30, seed=2)
        agents = world.agents()
        context = QueryContext(agents, tick=0, seed=0, spatial_backend=backend)
        probe = agents[0]
        nearest = context.nearest(probe, k=3)
        distances = [math.dist(a.position(), probe.position()) for a in nearest]
        assert distances == sorted(distances)
        assert probe not in nearest

    @pytest.mark.parametrize("backend", ["python", "vectorized"])
    @pytest.mark.parametrize(
        "order,k,expected",
        [
            # Agents 1 at (1, 0) and 2 at (-1, 0) tie for the probe 3 at the
            # origin: the tie goes to canonical order, however the extent
            # was assembled.
            ((1, 2, 3), 1, [1]),
            ((2, 1, 3), 1, [1]),
            ((3, 2, 1), 1, [1]),
            ((2, 3, 1), 2, [1, 2]),
            ((2, 1, 3), 5, [1, 2]),
            ((1, 2, 3), 0, []),
            ((1, 2, 3), -1, []),
            ((2, 1, 3), -1, []),
        ],
    )
    def test_nearest_breaks_ties_in_canonical_order(self, backend, order, k, expected):
        positions = {1: (1.0, 0.0), 2: (-1.0, 0.0), 3: (0.0, 0.0)}
        agents = {i: Near(agent_id=i, x=positions[i][0], y=positions[i][1]) for i in order}
        context = QueryContext(
            [agents[i] for i in order], tick=0, seed=0, spatial_backend=backend
        )
        assert [a.agent_id for a in context.nearest(agents[3], k=k)] == expected

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_nearest_is_independent_of_extent_order(self, data):
        agents, _ = data.draw(extents())
        probe = agents[0]
        k = data.draw(st.integers(min_value=-1, max_value=len(agents) + 1))
        shuffled = data.draw(st.permutations(agents))
        answers = {
            (backend, tuple(a.agent_id for a in extent)): [
                a.agent_id
                for a in QueryContext(extent, 0, 0, spatial_backend=backend).nearest(probe, k)
            ]
            for backend in ("python", "vectorized")
            for extent in (agents, shuffled)
        }
        assert len({tuple(found) for found in answers.values()}) == 1

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

    @pytest.mark.parametrize("backend", [None, "auto", "kdtree"])
    def test_unknown_backend_rejected(self, backend):
        world = make_boid_world(num_agents=3)
        with pytest.raises(WorldError, match="unknown spatial backend"):
            QueryContext(world.agents(), tick=0, seed=0, spatial_backend=backend)


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


def _concatenated(blocks):
    """``visible_pairs``' blocks as one ``(pair_probe, pair_rows)``."""
    blocks = list(blocks)
    assert blocks, "visible_pairs yields at least one block"
    for pair_probe, pair_rows in blocks:
        assert pair_probe.dtype == pair_rows.dtype == np.intp
    return tuple(np.concatenate(arrays) for arrays in zip(*blocks))


def _paired(context, agents, probes):
    canonical = sorted(agents, key=lambda agent: agent_sort_key(agent.agent_id))
    pair_probe, pair_rows = _concatenated(context.visible_pairs(probes))
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
    @given(extents())
    def test_vectorized_pairs_equal_looped_visible(self, extent):
        agents, probes = extent
        context = QueryContext(agents, tick=0, seed=0)
        assert context.spatial_backend == "vectorized"  # whatever the extent size
        _assert_pairs_equal_loop(agents, probes)

    @settings(max_examples=100, deadline=None)
    @given(extents())
    def test_python_backend_pairs_equal_looped_visible(self, extent):
        agents, probes = extent
        _assert_pairs_equal_loop(agents, probes, spatial_backend="python")

    @settings(max_examples=60, deadline=None)
    @given(extents(classes=(Near, Far, Everywhere)), st.sampled_from(["python", "vectorized"]))
    def test_unbounded_probes_take_the_same_route(self, extent, backend):
        agents, probes = extent
        _assert_pairs_equal_loop(agents, probes, spatial_backend=backend)

    @settings(max_examples=60, deadline=None)
    @given(extents(allow_nan=True), st.sampled_from(["python", "vectorized"]))
    def test_nan_coordinate(self, extent, backend):
        agents, probes = extent
        _assert_pairs_equal_loop(agents, probes, spatial_backend=backend)

    @settings(max_examples=60, deadline=None)
    @given(extents(), _COORDINATES, _COORDINATES)
    def test_probe_outside_the_snapshot(self, extent, x, y):
        agents, probes = extent
        outsider = Far(agent_id=99, x=x, y=y)
        _assert_pairs_equal_loop(agents, probes + [outsider], spatial_backend="vectorized")

    def test_no_probes_no_pairs_no_charge(self):
        context = QueryContext([Near(agent_id=0)], tick=0, seed=0, spatial_backend="vectorized")
        pair_probe, pair_rows = _concatenated(context.visible_pairs([]))
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
        # The scan charges the whole extent per probe and probes no index.
        assert (python.work_units, python.index_probes) == (len(agents) ** 2, 0)
        assert vectorized.index_probes == len(agents)


# ---------------------------------------------------------------------------
# The linear scan is the grid's oracle
# ---------------------------------------------------------------------------
def _ids(agents):
    return [agent.agent_id for agent in agents]


def _backends(agents):
    """``(scan, grid)`` contexts over the same extent."""
    return tuple(
        QueryContext(agents, tick=0, seed=0, check_visibility=False, spatial_backend=backend)
        for backend in ("python", "vectorized")
    )


def _grid_charge(agents, boxes):
    """What the grid charges for one probe per box: log descent + box candidates."""
    descent = max(1, int(math.log2(len(agents) + 1)))
    return sum(
        descent + sum(box.contains_point(agent.position()) for agent in agents)
        for box in boxes
    )


_RADII = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 50.0])


class TestScanAgainstGrid:
    """Same answers on both backends; each charges its own rule.

    The scan charges the whole extent per query and probes no index; the
    grid charges one probe, plus one log-cost descent and the candidates
    inside the probe's box as work.
    """

    @settings(max_examples=80, deadline=None)
    @given(extents(), _RADII, st.booleans())
    def test_neighbors(self, extent, radius, include_self):
        agents, probes = extent
        scan, grid = _backends(agents)
        for probe in probes:
            assert _ids(scan.neighbors(probe, radius, include_self)) == _ids(
                grid.neighbors(probe, radius, include_self)
            )
        assert (scan.work_units, scan.index_probes) == (len(agents) * len(probes), 0)
        boxes = [BBox.around(probe.position(), radius) for probe in probes]
        assert (grid.work_units, grid.index_probes) == (
            _grid_charge(agents, boxes),
            len(probes),
        )

    @settings(max_examples=80, deadline=None)
    @given(extents(), _COORDINATES, _COORDINATES, _RADII, st.booleans())
    def test_neighbors_in_box(self, extent, x, y, half_side, include_self):
        agents, probes = extent
        scan, grid = _backends(agents)
        box = BBox.around((x, y), half_side)
        for probe in probes:
            assert _ids(scan.neighbors_in_box(probe, box, include_self)) == _ids(
                grid.neighbors_in_box(probe, box, include_self)
            )
        assert (scan.work_units, scan.index_probes) == (len(agents) * len(probes), 0)
        assert (grid.work_units, grid.index_probes) == (
            _grid_charge(agents, [box] * len(probes)),
            len(probes),
        )

    @settings(max_examples=80, deadline=None)
    @given(extents(), st.booleans())
    def test_visible(self, extent, include_self):
        agents, probes = extent
        scan, grid = _backends(agents)
        for probe in probes:
            assert _ids(scan.visible(probe, include_self)) == _ids(
                grid.visible(probe, include_self)
            )
        assert (scan.work_units, scan.index_probes) == (len(agents) * len(probes), 0)
        boxes = [probe.visible_region() for probe in probes]
        assert (grid.work_units, grid.index_probes) == (
            _grid_charge(agents, boxes),
            len(probes),
        )

    @settings(max_examples=60, deadline=None)
    @given(extents(classes=(Near, Far, Everywhere)))
    def test_visible_pairs(self, extent):
        agents, probes = extent
        scan, grid = _backends(agents)
        assert _paired(scan, agents, probes) == _paired(grid, agents, probes)
        assert scan.index_probes == 0

    @settings(max_examples=60, deadline=None)
    @given(extents(), st.integers(min_value=-1, max_value=16), st.sampled_from([None, 1.0, 5.0]))
    def test_nearest(self, extent, k, max_radius):
        agents, probes = extent
        scan, grid = _backends(agents)
        for probe in probes:
            assert _ids(scan.nearest(probe, k, max_radius)) == _ids(
                grid.nearest(probe, k, max_radius)
            )
        assert (scan.work_units, scan.index_probes) == (len(agents) * len(probes), 0)
        assert (grid.work_units, grid.index_probes) == (0, len(probes))

    @settings(max_examples=60, deadline=None)
    @given(extents(), _COORDINATES, _COORDINATES, _RADII)
    def test_probe_from_outside_the_extent(self, extent, x, y, radius):
        agents, _ = extent
        outsider = Near(agent_id=99, x=x, y=y)
        scan, grid = _backends(agents)
        assert _ids(scan.neighbors(outsider, radius)) == _ids(grid.neighbors(outsider, radius))
        assert _ids(scan.visible(outsider)) == _ids(grid.visible(outsider))
        assert _ids(scan.nearest(outsider, 3)) == _ids(grid.nearest(outsider, 3))

    @pytest.mark.parametrize("count", [0, 1, 2, 63, 64])
    def test_small_extents_run_on_the_grid(self, count):
        # The grid serves every extent size, however small, with the
        # scan's answers.
        agents = [
            (Near if i % 3 else Far)(agent_id=i, x=float(i % 8), y=float(i // 8) * 1.5)
            for i in range(count)
        ]
        probes = agents + [Far(agent_id=count, x=3.5, y=2.0)]
        scan, grid = _backends(agents)
        assert grid.spatial_backend == "vectorized"
        for probe in probes:
            assert _ids(scan.neighbors(probe, 2.0)) == _ids(grid.neighbors(probe, 2.0))
            assert _ids(scan.visible(probe)) == _ids(grid.visible(probe))
            assert _ids(scan.nearest(probe, 2)) == _ids(grid.nearest(probe, 2))
        assert grid.index_probes == 3 * len(probes)
