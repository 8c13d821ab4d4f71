"""The rank-run σ_V join against the cell sweep it replaced.

``VectorizedGrid`` answers dimension 0 by rank (two ``searchsorted`` calls
on the sorted column) and sweeps cells only over the other dimensions.  The
previous implementation — every dimension binned, one sweep over all of
them — lives on verbatim in :mod:`tests.spatial.cell_sweep_oracle`; both
joins must return ``array_equal`` ``(probe_ids, match_rows, examined)`` on
every input, the nasty ones first: points on box faces, duplicate points,
duplicate dimension-0 values (rank ties), infinite and inverted boxes,
probes that miss the extent, probes wide enough for the scan fallback,
coordinates far from the origin and cells far smaller than the extent.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.spatial.columnar import PointSet, VectorizedGrid, _cells_per_axis_cap

from tests.spatial.cell_sweep_oracle import CellSweepGrid

#: A coarse lattice: random draws collide, so faces, duplicates and rank
#: ties are the common case rather than the lucky one.
_LATTICE = st.sampled_from([-3.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
_BOUND = st.one_of(_LATTICE, st.sampled_from([-np.inf, np.inf, -7.0, 7.0]))
_CELL = st.sampled_from([0.01, 0.3, 0.5, 1.0, 1.5, 4.0, 50.0])


def _pointset(points) -> PointSet:
    points = np.asarray(points, dtype=np.float64)
    return PointSet(list(range(len(points))), points=points)


def _assert_same_join(got, expected) -> None:
    for ours, theirs, name in zip(got, expected, ("probe_ids", "match_rows", "examined")):
        assert np.array_equal(ours, theirs), name


def _assert_range_equal(points, lows, highs, cell) -> None:
    pointset = _pointset(points)
    # The sweep raised (``np.ndindex`` of a negative reach) when every
    # narrow box was inverted.  A box with low > high contains no point, so
    # the oracle answers for the other probes and the inverted ones must
    # come back empty with nothing examined.
    lows, highs = np.asarray(lows, dtype=np.float64), np.asarray(highs, dtype=np.float64)
    proper = np.flatnonzero((lows <= highs).all(axis=1))
    probe_ids, match_rows, examined = CellSweepGrid(pointset, cell).batch_range_query(
        lows[proper], highs[proper]
    )
    expected_examined = np.zeros(len(lows), dtype=np.int64)
    expected_examined[proper] = examined
    _assert_same_join(
        VectorizedGrid(pointset, cell).batch_range_query(lows, highs),
        (proper[probe_ids], match_rows, expected_examined),
    )


def _assert_radius_equal(points, centers, radius, cell) -> None:
    pointset = _pointset(points)
    _assert_same_join(
        VectorizedGrid(pointset, cell).batch_radius_query(centers, radius),
        CellSweepGrid(pointset, cell).batch_radius_query(centers, radius),
    )


@st.composite
def _worlds(draw, bound=_LATTICE):
    """``(points, lows, highs)`` over one dimensionality, 1 to 3."""
    dim = draw(st.integers(min_value=1, max_value=3))
    row = st.lists(_LATTICE, min_size=dim, max_size=dim)
    points = draw(st.lists(row, min_size=1, max_size=24))
    face = st.lists(bound, min_size=dim, max_size=dim)
    probes = draw(st.integers(min_value=1, max_value=12))
    lows = draw(st.lists(face, min_size=probes, max_size=probes))
    highs = draw(st.lists(face, min_size=probes, max_size=probes))
    return np.array(points), np.array(lows), np.array(highs)


class TestRankRunEqualsCellSweep:
    @settings(max_examples=150, deadline=None)
    @given(world=_worlds(bound=_BOUND), cell=_CELL)
    def test_range_query_property(self, world, cell):
        # Bounds are drawn independently: about half the boxes are inverted
        # in some dimension, some are infinite, some sit on lattice points.
        points, lows, highs = world
        _assert_range_equal(points, lows, highs, cell)

    @settings(max_examples=100, deadline=None)
    @given(
        world=_worlds(),
        radius=st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.5, 10.0]),
        cell=_CELL,
    )
    def test_radius_query_property(self, world, radius, cell):
        points, centers, _ = world
        _assert_radius_equal(points, centers, radius, cell)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_self_join_with_ties_on_every_face(self, dim):
        rng = np.random.default_rng(dim)
        points = np.round(rng.uniform(-4, 4, size=(90, dim)), 1)
        reach = np.round(rng.uniform(0.0, 2.0, size=(90, dim)), 1)
        _assert_range_equal(points, points - reach, points + reach, 1.5)
        _assert_radius_equal(points, points, 1.7, 1.5)

    def test_duplicate_points_and_rank_ties(self):
        # Eight copies of one point plus a column sharing one x: every
        # dimension-0 rank is a tie broken by row order.
        points = np.array([[1.0, 2.0]] * 8 + [[1.0, y] for y in np.arange(-3.0, 3.0, 0.5)])
        _assert_range_equal(points, points - 0.5, points + 0.5, 0.5)
        _assert_range_equal(points, points, points, 0.5)  # zero-size boxes
        _assert_radius_equal(points, points, 0.0, 0.5)

    def test_infinite_inverted_and_voided_boxes(self):
        points = np.array([[0.0, 0.0], [3.0, 4.0], [-2.0, 1.0], [3.0, -4.0]])
        lows = np.array(
            [[-np.inf, -np.inf], [0.0, -np.inf], [np.inf, np.inf], [1.0, 1.0], [-np.inf, 5.0]]
        )
        highs = np.array(
            [[np.inf, np.inf], [np.inf, 0.0], [-np.inf, -np.inf], [0.0, 2.0], [np.inf, 4.0]]
        )
        _assert_range_equal(points, lows, highs, 1.0)
        probe_ids, match_rows, examined = VectorizedGrid(
            _pointset(points), 1.0
        ).batch_range_query(lows, highs)
        assert list(match_rows[probe_ids == 0]) == [0, 1, 2, 3]
        assert list(examined) == [4, 2, 0, 0, 0]

    def test_nan_bound_matches_nothing(self):
        points = np.array([[0.0, 0.0], [1.0, 1.0]])
        lows = np.array([[np.nan, -5.0], [-5.0, np.nan], [-5.0, -5.0]])
        highs = np.array([[5.0, 5.0], [5.0, 5.0], [5.0, np.nan]])
        probe_ids, match_rows, examined = VectorizedGrid(
            _pointset(points), 1.0
        ).batch_range_query(lows, highs)
        assert len(probe_ids) == 0 and len(match_rows) == 0 and not examined.any()

    def test_probes_outside_the_extent(self):
        rng = np.random.default_rng(5)
        points = rng.uniform(-5, 5, size=(60, 2))
        centers = np.array([[50.0, 0.0], [0.0, 50.0], [-50.0, -50.0], [5.5, 0.0], [0.0, -5.5]])
        _assert_range_equal(points, centers - 1.0, centers + 1.0, 1.0)
        _assert_radius_equal(points, centers, 1.0, 1.0)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_wide_probes_take_the_scan_fallback(self, dim):
        rng = np.random.default_rng(dim)
        points = rng.uniform(-5, 5, size=(50, dim))
        # Every box spans hundreds of 0.01-cells; a few stay narrow.
        reach = np.where(np.arange(50)[:, None] % 5 == 0, 0.004, 3.0)
        _assert_range_equal(points, points - reach, points + reach, 0.01)
        _assert_radius_equal(points, points, 3.0, 0.01)

    def test_far_origin_coordinates(self):
        rng = np.random.default_rng(11)
        points = rng.uniform(-20, 20, size=(80, 2)).round(0) + np.array([1e15, -1e15])
        _assert_range_equal(points, points - 4.0, points + 4.0, 4.0)
        _assert_radius_equal(points, points, 4.0, 4.0)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_tiny_cells_are_clamped_not_overflowed(self, dim):
        rng = np.random.default_rng(dim)
        points = rng.uniform(-1e6, 1e6, size=(70, dim))
        grid = VectorizedGrid(_pointset(points), 1e-12)
        assert (grid.cell_size[1:] > 1e-12).all()
        assert grid._sorted_keys.min() >= 0 and (np.diff(grid._sorted_keys) > 0).all()
        _assert_range_equal(points, points - 1e5, points + 1e5, 1e-12)
        _assert_range_equal(points, points - 1e-9, points + 1e-9, 1e-12)

    def test_empty_sets(self):
        nothing = np.zeros((0, 2))
        some = np.array([[0.0, 0.0], [1.0, 1.0]])
        _assert_range_equal(nothing, some - 1.0, some + 1.0, 1.0)
        _assert_range_equal(some, nothing, nothing, 1.0)
        _assert_radius_equal(nothing, some, 1.0, 1.0)
        _assert_radius_equal(some, nothing, 1.0, 1.0)


class TestKeySpace:
    """``cell_key * n + rank`` (and the probe-side run bounds, up to
    ``(cell_key + 1) * n``) must stay inside int64 for any snapshot."""

    @pytest.mark.parametrize("count", [1, 8000, 2**20, 2**31, 2**40, 2**52])
    @pytest.mark.parametrize("binned_dims", [1, 2])
    def test_cap_leaves_room_for_every_key(self, count, binned_dims):
        cap = int(_cells_per_axis_cap(count, binned_dims))
        assert cap >= 1
        # An axis spans at most cap + 1 cells (the far face gets its own).
        cells = (cap + 1) ** binned_dims
        assert (cells + 1) * count < 2**63

    def test_large_snapshot_in_three_dimensions(self):
        # dim = 3 bins two axes: a trillion rows still leave 2**9 strips
        # per axis, where the old per-dimension 2**(50 // dim) cap would
        # have let cell_key * n wrap.
        assert _cells_per_axis_cap(2**40, 2) == 2.0**9
        assert (2 ** (50 // 3)) ** 2 * 2**40 >= 2**63

    def test_no_key_space_left_is_a_typed_error(self):
        with pytest.raises(ValueError, match="int64 key space"):
            _cells_per_axis_cap(2**61, 2)
