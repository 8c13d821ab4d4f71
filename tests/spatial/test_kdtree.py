"""Tests for the k-d tree, including brute-force equivalence properties."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.spatial.bbox import BBox
from repro.spatial.kdtree import KDTree

coordinate = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)
points_strategy = st.lists(st.tuples(coordinate, coordinate), min_size=0, max_size=60)


def brute_force_range(points, box):
    return [point for point in points if box.contains_point(point)]


class TestConstruction:
    def test_empty_tree(self):
        tree = KDTree([])
        assert len(tree) == 0
        assert tree.nearest((0, 0)) is None
        assert tree.range_query(BBox(((0, 1), (0, 1)))) == []

    def test_len_and_items(self):
        points = [(0, 0), (1, 1), (2, 2)]
        tree = KDTree(points)
        assert len(tree) == 3
        assert sorted(tree.items()) == points

    def test_key_function(self):
        items = [{"pos": (1, 2), "name": "a"}, {"pos": (3, 4), "name": "b"}]
        tree = KDTree(items, key=lambda item: item["pos"])
        found = tree.range_query(BBox(((0, 2), (0, 3))))
        assert [item["name"] for item in found] == ["a"]

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            KDTree([(1, 2), (1, 2, 3)])

    def test_duplicate_points_all_indexed(self):
        tree = KDTree([(1, 1)] * 5)
        assert len(tree.range_query(BBox(((0, 2), (0, 2))))) == 5

    def test_height_is_logarithmic_for_balanced_input(self):
        points = [(float(i), float(i % 7)) for i in range(127)]
        tree = KDTree(points)
        assert tree.height() <= 2 * (math.floor(math.log2(127)) + 1)


class TestRangeQueries:
    def test_simple_range(self):
        tree = KDTree([(0, 0), (5, 5), (10, 10)])
        assert sorted(tree.range_query(BBox(((0, 6), (0, 6))))) == [(0, 0), (5, 5)]

    def test_range_boundary_inclusive(self):
        tree = KDTree([(1, 1)])
        assert tree.range_query(BBox(((1, 2), (1, 2)))) == [(1, 1)]

    def test_query_dim_mismatch(self):
        tree = KDTree([(1, 1)])
        with pytest.raises(ValueError):
            tree.range_query(BBox(((0, 1),)))

    @settings(max_examples=60, deadline=None)
    @given(points_strategy, st.tuples(coordinate, coordinate), st.floats(min_value=0, max_value=50))
    def test_range_matches_brute_force(self, points, center, radius):
        tree = KDTree(points)
        box = BBox.around(center, radius)
        assert sorted(tree.range_query(box)) == sorted(brute_force_range(points, box))


class TestRadiusAndNearest:
    def test_radius_query(self):
        tree = KDTree([(0, 0), (3, 4), (6, 8)])
        assert sorted(tree.radius_query((0, 0), 5.0)) == [(0, 0), (3, 4)]

    def test_nearest(self):
        tree = KDTree([(0, 0), (10, 10), (2, 2)])
        assert tree.nearest((1.4, 1.4)) == (2, 2)

    def test_k_nearest_ordering(self):
        tree = KDTree([(0, 0), (1, 0), (5, 0), (10, 0)])
        assert tree.k_nearest((0, 0), 3) == [(0, 0), (1, 0), (5, 0)]

    def test_k_nearest_more_than_size(self):
        tree = KDTree([(0, 0), (1, 0)])
        assert len(tree.k_nearest((0, 0), 10)) == 2

    def test_nearest_within(self):
        tree = KDTree([(5, 5)])
        assert tree.nearest_within((0, 0), 2.0) is None
        assert tree.nearest_within((4, 4), 2.0) == (5, 5)

    @settings(max_examples=40, deadline=None)
    @given(points_strategy, st.tuples(coordinate, coordinate))
    def test_nearest_matches_brute_force(self, points, probe):
        tree = KDTree(points)
        nearest = tree.nearest(probe)
        if not points:
            assert nearest is None
            return
        best = min(points, key=lambda p: (p[0] - probe[0]) ** 2 + (p[1] - probe[1]) ** 2)
        best_distance = (best[0] - probe[0]) ** 2 + (best[1] - probe[1]) ** 2
        found_distance = (nearest[0] - probe[0]) ** 2 + (nearest[1] - probe[1]) ** 2
        assert found_distance == pytest.approx(best_distance)

    @settings(max_examples=40, deadline=None)
    @given(
        points_strategy,
        st.tuples(coordinate, coordinate),
        st.floats(min_value=0.01, max_value=50),
    )
    def test_radius_matches_brute_force(self, points, center, radius):
        tree = KDTree(points)
        # A radius query is the closed box ``center ± radius`` pruned by
        # distance (the contract every index and the columnar kernels
        # share).  The box is not redundant in floats: a point 1e-28 beyond
        # the box face can still round to a squared distance of radius².
        expected = [
            point
            for point in points
            if all(c - radius <= p <= c + radius for p, c in zip(point, center))
            and (point[0] - center[0]) ** 2 + (point[1] - center[1]) ** 2 <= radius * radius
        ]
        assert sorted(tree.radius_query(center, radius)) == sorted(expected)
