"""Tests for grid and strip spatial partitionings."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import PartitioningError
from repro.spatial.bbox import BBox
from repro.spatial.partitioning import GridPartitioning, StripPartitioning

BOUNDS = BBox(((0.0, 100.0), (0.0, 100.0)))
coordinate = st.floats(min_value=0, max_value=100, allow_nan=False)


class TestGridPartitioning:
    def test_number_of_partitions(self):
        grid = GridPartitioning(BOUNDS, [4, 3])
        assert grid.num_partitions() == 12
        assert len(grid.partitions()) == 12

    def test_owned_regions_tile_the_bounds(self):
        grid = GridPartitioning(BOUNDS, [2, 2])
        total_volume = sum(part.owned_region.volume() for part in grid.partitions())
        assert total_volume == pytest.approx(BOUNDS.volume())

    def test_partition_of_center_points(self):
        grid = GridPartitioning(BOUNDS, [2, 2])
        for part in grid.partitions():
            assert grid.partition_of(part.owned_region.center()) == part.partition_id

    def test_clamps_out_of_bounds_points(self):
        grid = GridPartitioning(BOUNDS, [2, 2])
        assert grid.partition_of((-5.0, -5.0)) == grid.partition_of((0.0, 0.0))
        assert grid.partition_of((500.0, 500.0)) == grid.partition_of((99.9, 99.9))

    def test_replication_targets_cover_visible_region(self):
        grid = GridPartitioning(BOUNDS, [4, 1])
        targets = grid.replication_targets((26.0, 50.0), 2.0)
        # The point at x=26 with visibility 2 touches only the [25, 50) cell
        # and the [0, 25) cell (owned region expanded by 2 reaches 27 > 25).
        assert grid.partition_of((26.0, 50.0)) in targets
        assert grid.partition_of((24.0, 50.0)) in targets
        assert grid.partition_of((60.0, 50.0)) not in targets

    def test_invalid_configuration(self):
        with pytest.raises(PartitioningError):
            GridPartitioning(BOUNDS, [0, 2])
        with pytest.raises(PartitioningError):
            GridPartitioning(BOUNDS, [2])
        with pytest.raises(PartitioningError):
            GridPartitioning(BOUNDS, [2, 2]).partition(99)

    @settings(max_examples=60, deadline=None)
    @given(coordinate, coordinate)
    def test_every_point_owned_by_its_partition(self, x, y):
        grid = GridPartitioning(BOUNDS, [5, 4])
        part = grid.partition(grid.partition_of((x, y)))
        assert part.owned_region.contains_point((x, y))


class TestStripPartitioning:
    def test_uniform_strips(self):
        strips = StripPartitioning.uniform(BOUNDS, axis=0, num_strips=4)
        assert strips.num_partitions() == 4
        assert strips.boundaries == [25.0, 50.0, 75.0]

    def test_partition_of_uses_boundaries(self):
        strips = StripPartitioning(BOUNDS, axis=0, boundaries=[10.0, 60.0])
        assert strips.partition_of((5.0, 0.0)) == 0
        assert strips.partition_of((30.0, 0.0)) == 1
        assert strips.partition_of((90.0, 0.0)) == 2

    def test_with_boundaries_rebuilds(self):
        strips = StripPartitioning.uniform(BOUNDS, axis=0, num_strips=3)
        rebalanced = strips.with_boundaries([10.0, 20.0])
        assert rebalanced.partition_of((15.0, 0.0)) == 1
        assert strips.partition_of((15.0, 0.0)) == 0  # the original is unchanged

    def test_axis_one(self):
        strips = StripPartitioning.uniform(BOUNDS, axis=1, num_strips=2)
        assert strips.partition_of((0.0, 10.0)) == 0
        assert strips.partition_of((0.0, 90.0)) == 1

    def test_invalid_configurations(self):
        with pytest.raises(PartitioningError):
            StripPartitioning(BOUNDS, axis=2, boundaries=[])
        with pytest.raises(PartitioningError):
            StripPartitioning(BOUNDS, axis=0, boundaries=[60.0, 50.0])
        with pytest.raises(PartitioningError):
            StripPartitioning(BOUNDS, axis=0, boundaries=[150.0])
        with pytest.raises(PartitioningError):
            StripPartitioning.uniform(BOUNDS, axis=0, num_strips=0)

    def test_visible_region_expansion(self):
        strips = StripPartitioning.uniform(BOUNDS, axis=0, num_strips=4)
        part = strips.partition(1)
        visible = part.visible_region([5.0, 5.0])
        assert visible.contains_point((22.0, 50.0))
        assert not part.owned_region.contains_point((22.0, 50.0))

    @settings(max_examples=60, deadline=None)
    @given(coordinate, coordinate, st.floats(min_value=0.1, max_value=20))
    def test_replication_targets_include_owner(self, x, y, radius):
        strips = StripPartitioning.uniform(BOUNDS, axis=0, num_strips=6)
        targets = strips.replication_targets((x, y), [radius, radius])
        assert strips.partition_of((x, y)) in targets


# ---------------------------------------------------------------------------
# Replication past the world box
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "partitioning",
    [GridPartitioning(BOUNDS, [3, 2]), StripPartitioning.uniform(BOUNDS, axis=0, num_strips=3)],
    ids=["grid", "strip"],
)
class TestWorldEdgeReplication:
    """``partition_of`` clamps outside points into an edge partition, so the
    visible regions must be open on the faces that lie on the world bounds."""

    @settings(max_examples=60, deadline=None)
    @given(coordinate, coordinate, st.floats(min_value=0.1, max_value=20))
    def test_points_inside_the_box_see_the_closed_regions(self, partitioning, x, y, radius):
        closed = [
            part.partition_id
            for part in partitioning.partitions()
            if part.visible_region(radius).contains_point((x, y))
        ]
        assert partitioning.replication_targets((x, y), radius) == closed

    @pytest.mark.parametrize("y", [-150.0, 250.0])
    def test_points_far_outside_still_reach_their_neighbours(self, partitioning, y):
        # x=34 is owned by the middle column and visible (radius 2) from the
        # left one; being 150 units outside the box in y must not change that.
        owners = {
            partitioning.partition_of((x, y)) for x in (32.0, 34.0)
        }
        assert len(owners) == 2
        assert set(partitioning.replication_targets((34.0, y), 2.0)) == owners


# ---------------------------------------------------------------------------
# Batch / scalar equivalence (property-based)
# ---------------------------------------------------------------------------
#: Bounds far from the origin: (coordinate - lo) loses low-order bits to
#: cancellation, so any divergence between the scalar and vectorized float
#: pipelines would surface here first.
FAR_BOUNDS = BBox(((1.0e7, 1.0e7 + 300.0), (-4.0e6, -4.0e6 + 300.0)))


def _axis_values(lo, hi, specials=()):
    """Coordinates along one axis: bulk floats plus adversarial exact values.

    The sampled specials hit the cases where scalar/batch disagreement would
    hide: boundary-exact coordinates (ownership decided by a single float
    comparison) and points just outside the bounds (clamping).
    """
    width = hi - lo
    exact = [lo, hi, lo + width / 2, float(np.nextafter(lo, hi)), *specials]
    return st.one_of(
        st.floats(
            min_value=lo - width, max_value=hi + width,
            allow_nan=False, allow_infinity=False,
        ),
        st.sampled_from(exact),
    )


def _cloud(bounds, specials_per_axis):
    """Point clouds over ``bounds``, with duplicates forced in."""
    axes = [
        st.tuples(*(
            _axis_values(lo, hi, specials_per_axis[dim])
            for dim, (lo, hi) in enumerate(bounds.intervals)
        ))
    ]
    return st.lists(axes[0], min_size=1, max_size=24).map(
        lambda points: points + points[: max(1, len(points) // 2)]
    )


def _grid_edges(bounds, dim, cells):
    lo, hi = bounds.intervals[dim]
    width = (hi - lo) / cells
    return [lo + index * width for index in range(cells + 1)]


class TestBatchScalarEquivalence:
    """``partition_of_batch`` must agree with ``partition_of`` element for
    element — the columnar map phase routes agents with the batch path while
    everything else (replication, load accounting) uses the scalar one, so
    even a single boundary-exact disagreement would split an agent's owner."""

    def _assert_batch_matches(self, partitioning, points):
        batch = partitioning.partition_of_batch(np.asarray(points, dtype=np.float64))
        scalar = [partitioning.partition_of(point) for point in points]
        assert batch.dtype == np.int64
        assert batch.tolist() == scalar

    @settings(max_examples=120, deadline=None)
    @given(_cloud(BOUNDS, [_grid_edges(BOUNDS, 0, 7), _grid_edges(BOUNDS, 1, 3)]))
    def test_grid_matches_scalar_near_origin(self, points):
        self._assert_batch_matches(GridPartitioning(BOUNDS, [7, 3]), points)

    @settings(max_examples=120, deadline=None)
    @given(
        _cloud(FAR_BOUNDS, [_grid_edges(FAR_BOUNDS, 0, 5), _grid_edges(FAR_BOUNDS, 1, 4)])
    )
    def test_grid_matches_scalar_far_from_origin(self, points):
        self._assert_batch_matches(GridPartitioning(FAR_BOUNDS, [5, 4]), points)

    @settings(max_examples=120, deadline=None)
    @given(_cloud(BOUNDS, [[25.0, 50.0, 75.0], []]))
    def test_uniform_strips_match_scalar(self, points):
        self._assert_batch_matches(
            StripPartitioning.uniform(BOUNDS, axis=0, num_strips=4), points
        )

    @settings(max_examples=120, deadline=None)
    @given(
        _cloud(FAR_BOUNDS, [[], [-4.0e6 + 1.0, -4.0e6 + 7.5, -4.0e6 + 299.0]]),
        st.integers(min_value=0, max_value=1),
    )
    def test_irregular_strips_match_scalar_far_from_origin(self, points, axis):
        lo, hi = FAR_BOUNDS.intervals[axis]
        boundaries = [lo + 1.0, lo + 7.5, hi - 1.0]
        self._assert_batch_matches(
            StripPartitioning(FAR_BOUNDS, axis=axis, boundaries=boundaries), points
        )

    def test_boundary_exact_points_go_right(self):
        # bisect_right and searchsorted(side="right") both place a point
        # sitting exactly on a boundary in the strip to its right.
        strips = StripPartitioning(BOUNDS, axis=0, boundaries=[25.0, 50.0])
        points = [(25.0, 0.0), (50.0, 0.0), (np.nextafter(25.0, 0.0), 0.0)]
        assert [strips.partition_of(point) for point in points] == [1, 2, 0]
        self._assert_batch_matches(strips, points)

    def test_duplicate_positions_share_an_owner(self):
        grid = GridPartitioning(BOUNDS, [4, 4])
        points = [(12.5, 12.5)] * 5 + [(87.5, 87.5)] * 5
        owners = grid.partition_of_batch(np.asarray(points))
        assert len(set(owners[:5].tolist())) == 1
        assert len(set(owners[5:].tolist())) == 1
        self._assert_batch_matches(grid, points)

    def test_empty_batch(self):
        grid = GridPartitioning(BOUNDS, [4, 4])
        strips = StripPartitioning.uniform(BOUNDS, axis=0, num_strips=4)
        empty = np.empty((0, 2), dtype=np.float64)
        assert grid.partition_of_batch(empty).shape == (0,)
        assert strips.partition_of_batch(empty).shape == (0,)
