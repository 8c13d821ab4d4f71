"""Tests for axis-aligned bounding boxes."""

import pytest
from hypothesis import given, strategies as st

from repro.spatial.bbox import BBox

coordinate = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)


def box_strategy(dim=2):
    def build(values):
        intervals = []
        for index in range(dim):
            low, high = sorted((values[2 * index], values[2 * index + 1]))
            intervals.append((low, high))
        return BBox(tuple(intervals))

    return st.lists(coordinate, min_size=2 * dim, max_size=2 * dim).map(build)


class TestConstruction:
    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError):
            BBox(((1.0, 0.0),))

    def test_from_bounds(self):
        box = BBox.from_bounds([0, 0], [2, 3])
        assert box.lows == (0.0, 0.0)
        assert box.highs == (2.0, 3.0)

    def test_from_bounds_length_mismatch(self):
        with pytest.raises(ValueError):
            BBox.from_bounds([0], [1, 2])

    def test_around_scalar_radius(self):
        box = BBox.around((1.0, 2.0), 0.5)
        assert box.intervals == ((0.5, 1.5), (1.5, 2.5))

    def test_around_per_dimension_radii(self):
        box = BBox.around((0.0, 0.0), [1.0, 2.0])
        assert box.intervals == ((-1.0, 1.0), (-2.0, 2.0))

    def test_of_points(self):
        box = BBox.of_points([(0, 1), (2, -1), (1, 0)])
        assert box.intervals == ((0.0, 2.0), (-1.0, 1.0))

    def test_of_points_empty(self):
        with pytest.raises(ValueError):
            BBox.of_points([])


class TestPredicates:
    def test_contains_point_closed(self):
        box = BBox(((0.0, 1.0), (0.0, 1.0)))
        assert box.contains_point((0.0, 0.0))
        assert box.contains_point((1.0, 1.0))
        assert not box.contains_point((1.1, 0.5))

    def test_contains_box(self):
        outer = BBox(((0.0, 10.0), (0.0, 10.0)))
        inner = BBox(((2.0, 3.0), (2.0, 3.0)))
        assert outer.contains_box(inner)
        assert not inner.contains_box(outer)

    def test_intersects(self):
        a = BBox(((0.0, 2.0), (0.0, 2.0)))
        b = BBox(((1.0, 3.0), (1.0, 3.0)))
        c = BBox(((5.0, 6.0), (5.0, 6.0)))
        assert a.intersects(b)
        assert not a.intersects(c)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            BBox(((0.0, 1.0),)).intersects(BBox(((0.0, 1.0), (0.0, 1.0))))


class TestCombinators:
    def test_union(self):
        a = BBox(((0.0, 1.0),))
        b = BBox(((2.0, 3.0),))
        assert a.union(b).intervals == ((0.0, 3.0),)

    def test_expanded(self):
        assert BBox(((0.0, 1.0),)).expanded(1.0).intervals == ((-1.0, 2.0),)

    def test_clamp_point(self):
        box = BBox(((0.0, 1.0), (0.0, 1.0)))
        assert box.clamp_point((2.0, -1.0)) == (1.0, 0.0)

    def test_split(self):
        left, right = BBox(((0.0, 4.0),)).split(0, 1.0)
        assert left.intervals == ((0.0, 1.0),)
        assert right.intervals == ((1.0, 4.0),)
        with pytest.raises(ValueError):
            BBox(((0.0, 4.0),)).split(0, 9.0)

    def test_geometry_accessors(self):
        box = BBox(((0.0, 2.0), (0.0, 4.0)))
        assert box.center() == (1.0, 2.0)
        assert box.volume() == 8.0
        assert box.side(1) == 4.0
        assert box.dim == 2

    def test_min_distance_to_point(self):
        box = BBox(((0.0, 1.0), (0.0, 1.0)))
        assert box.min_distance_to_point((0.5, 0.5)) == 0.0
        assert box.min_distance_to_point((4.0, 1.0)) == pytest.approx(3.0)


class TestProperties:
    @given(box_strategy(), box_strategy())
    def test_intersection_symmetric(self, a, b):
        assert a.intersects(b) == b.intersects(a)

    @given(box_strategy(), box_strategy())
    def test_union_contains_both(self, a, b):
        union = a.union(b)
        assert union.contains_box(a)
        assert union.contains_box(b)

    @given(box_strategy(), st.tuples(coordinate, coordinate))
    def test_clamped_point_inside(self, box, point):
        assert box.contains_point(box.clamp_point(point))
