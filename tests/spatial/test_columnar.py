"""Equivalence tests for the columnar spatial kernels.

The correctness bar of the vectorized backend: every strategy — k-d tree,
uniform grid, quadtree, nested loop and the columnar batch kernels — must
return *identical* match sets on every input, including the nasty ones
(clustered points, collinear points, exact duplicates, empty extents,
unbounded visible regions).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.spatial.bbox import BBox
from repro.spatial.columnar import (
    PointSet,
    VectorizedGrid,
    batch_neighbor_lists,
    batch_range_query,
    derive_cell_size,
    vectorized_neighbor_lists,
    vectorized_self_join,
)
from repro.spatial.join import neighbor_lists, visible_region_self_join

ALL_STRATEGIES = [None, "kdtree", "grid", "quadtree", "vectorized"]


def identity_key(point):
    return point


def distinct_points(values):
    """Materialize value tuples as distinct objects (identity matters)."""
    return [tuple(map(float, value)) for value in values]


def clustered_points(rng, count):
    centers = rng.uniform(-30, 30, size=(max(count // 10, 1), 2))
    return distinct_points(
        centers[rng.integers(0, len(centers), count)] + rng.normal(0, 0.4, size=(count, 2))
    )


def collinear_points(rng, count):
    xs = rng.uniform(-20, 20, count)
    return distinct_points(np.stack([xs, np.full(count, 3.0)], axis=1))


def duplicate_points(rng, count):
    base = rng.uniform(-5, 5, size=(max(count // 3, 1), 2))
    return distinct_points(base[rng.integers(0, len(base), count)])


def lists_of(strategy, points, radius):
    if strategy == "vectorized":
        return vectorized_neighbor_lists(points, identity_key, radius)
    return neighbor_lists(points, identity_key, radius, index=strategy)


class TestNeighborListEquivalence:
    @pytest.mark.parametrize("workload", [clustered_points, collinear_points, duplicate_points])
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES[1:])
    def test_all_strategies_identical_on_hard_inputs(self, workload, strategy):
        rng = np.random.default_rng(7)
        points = workload(rng, 120)
        reference = lists_of(None, points, 3.0)
        candidate = lists_of(strategy, points, 3.0)
        assert set(reference) == set(candidate)
        for probe in reference:
            # Identical sets AND identical (item) order: the accumulation
            # order downstream is part of the contract.
            assert list(map(repr, reference[probe])) == list(map(repr, candidate[probe]))

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-40, max_value=40, allow_nan=False),
                st.floats(min_value=-40, max_value=40, allow_nan=False),
            ),
            min_size=0,
            max_size=40,
        ),
        st.floats(min_value=0.0, max_value=15.0, allow_nan=False),
    )
    def test_property_vectorized_matches_nested_loop(self, values, radius):
        points = distinct_points(values)
        reference = lists_of(None, points, radius)
        candidate = lists_of("vectorized", points, radius)
        assert set(reference) == set(candidate)
        for probe in reference:
            assert list(map(repr, reference[probe])) == list(map(repr, candidate[probe]))

    def test_empty_input(self):
        assert vectorized_neighbor_lists([], identity_key, 1.0) == {}
        lists, examined = batch_neighbor_lists(PointSet([]), 1.0)
        assert lists == [] and len(examined) == 0

    def test_zero_radius_keeps_exact_duplicates(self):
        points = distinct_points([(1.0, 1.0), (1.0, 1.0), (2.0, 2.0)])
        lists = vectorized_neighbor_lists(points, identity_key, 0.0)
        assert lists[0] == [points[1]]
        assert lists[1] == [points[0]]
        assert lists[2] == []

    def test_include_self(self):
        points = distinct_points([(0.0, 0.0), (0.5, 0.0)])
        lists = vectorized_neighbor_lists(points, identity_key, 1.0, include_self=True)
        assert lists[0] == [points[0], points[1]]


class _Probe:
    """Minimal agent: a position plus an optional declared visible region."""

    def __init__(self, position, radius):
        self._position = tuple(map(float, position))
        self._radius = radius

    def position(self):
        return self._position

    def visible_region(self):
        if self._radius is None:
            return None
        return BBox.around(self._position, self._radius)

    def __repr__(self):
        return f"_Probe({self._position}, {self._radius})"


class TestSelfJoinEquivalence:
    @pytest.mark.parametrize("index", [None, "kdtree", "grid", "quadtree"])
    def test_visible_region_join_matches_vectorized(self, index):
        rng = np.random.default_rng(3)
        agents = [
            _Probe(rng.uniform(-20, 20, 2), radius)
            for radius in [2.0, 5.0, None, 0.5] * 20
        ]
        reference = visible_region_self_join(agents, index=index, cell_size=4.0)
        candidate = vectorized_self_join(agents)
        assert set(reference) == set(candidate)
        for probe in reference:
            assert reference[probe] == candidate[probe]

    def test_all_unbounded_probes_scan_everything(self):
        agents = [_Probe((float(i), 0.0), None) for i in range(5)]
        joined = vectorized_self_join(agents)
        for probe, matches in joined.items():
            assert matches == [a for i, a in enumerate(agents) if i != probe]

    def test_empty_extent(self):
        assert vectorized_self_join([]) == {}


class TestKernelPlumbing:
    def test_batch_range_query_box_misses_extent(self):
        pointset = PointSet(distinct_points([(0.0, 0.0), (1.0, 1.0)]))
        lists = batch_range_query(
            pointset, np.array([[50.0, 50.0]]), np.array([[60.0, 60.0]])
        )
        assert len(lists) == 1 and len(lists[0]) == 0

    def test_wide_probe_falls_back_to_scan(self):
        rng = np.random.default_rng(0)
        pointset = PointSet(distinct_points(rng.uniform(-5, 5, size=(50, 2))))
        grid = VectorizedGrid(pointset, 0.01)  # every box spans many cells
        probes, rows, examined = grid.batch_range_query(
            pointset.points - 100.0, pointset.points + 100.0
        )
        assert len(rows) == 50 * 50
        assert (examined == 50).all()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_column_filters_equal_the_row_wise_predicates(self, dim):
        # The exact filters test one coordinate column at a time; the
        # reference is the row-wise form over every (probe, row) pair.
        rng = np.random.default_rng(dim)
        points = np.round(rng.uniform(-4, 4, size=(70, dim)), 1)  # ties on faces
        pointset = PointSet(distinct_points(points))
        grid = VectorizedGrid(pointset, 1.5)
        probe_ids, rows = (a.ravel() for a in np.mgrid[0:70, 0:70])

        lows = points - rng.uniform(0.0, 2.0, size=(70, dim)).round(1)
        highs = points + rng.uniform(0.0, 2.0, size=(70, dim)).round(1)
        inside = (points[rows] >= lows[probe_ids]).all(axis=1)
        inside &= (points[rows] <= highs[probe_ids]).all(axis=1)
        got_probes, got_rows, examined = grid.batch_range_query(lows, highs)
        assert (got_probes == probe_ids[inside]).all() and (got_rows == rows[inside]).all()
        assert (examined == np.bincount(probe_ids[inside], minlength=70)).all()

        radius = 1.7
        box = (points[rows] >= (points - radius)[probe_ids]).all(axis=1)
        box &= (points[rows] <= (points + radius)[probe_ids]).all(axis=1)
        diff = points[rows] - points[probe_ids]
        dist_sq = diff[:, 0] * diff[:, 0]
        for dimension in range(1, dim):
            dist_sq = dist_sq + diff[:, dimension] * diff[:, dimension]
        near = box & (dist_sq <= radius * radius)
        got_probes, got_rows, examined = grid.batch_radius_query(points, radius)
        assert (got_probes == probe_ids[near]).all() and (got_rows == rows[near]).all()
        assert (examined == np.bincount(probe_ids[box], minlength=70)).all()

    def test_infinite_boxes_are_clamped(self):
        pointset = PointSet(distinct_points([(0.0, 0.0), (3.0, 4.0)]))
        lists = batch_range_query(
            pointset,
            np.array([[-np.inf, -np.inf]]),
            np.array([[np.inf, np.inf]]),
            cell_size=1.0,
        )
        assert list(lists[0]) == [0, 1]

    def test_grid_rejects_bad_cell_size(self):
        pointset = PointSet(distinct_points([(0.0, 0.0)]))
        with pytest.raises(ValueError):
            VectorizedGrid(pointset, 0.0)
        with pytest.raises(ValueError):
            VectorizedGrid(pointset, float("inf"))

    def test_derive_cell_size_degenerate_extents(self):
        assert derive_cell_size([(1.0, 2.0)]) == (1.0, 1.0)  # single point
        sizes = derive_cell_size([(0.0, 5.0), (10.0, 5.0)])  # flat in y
        assert sizes[0] > 0 and sizes[1] == 1.0

    def test_pointset_rejects_mismatched_points(self):
        with pytest.raises(ValueError):
            PointSet([(0.0, 0.0)], points=np.zeros((2, 2)))
