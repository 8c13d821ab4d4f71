"""Tests for the spatial self-join algorithms: the nested-loop scan and its grid twin."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.spatial.bbox import BBox
from repro.spatial.columnar import vectorized_neighbor_lists
from repro.spatial.join import neighbor_lists, nested_loop_self_join

coordinate = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)
points_strategy = st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=30)


def identity_key(point):
    return point


def fixed_box(point):
    return BBox.around(point, 5.0)


class TestSelfJoins:
    def test_nested_loop_includes_self_when_in_box(self):
        points = [(0.0, 0.0), (1.0, 1.0), (100.0, 100.0)]
        joined = nested_loop_self_join(points, identity_key, fixed_box)
        assert sorted(joined[0]) == [(0.0, 0.0), (1.0, 1.0)]
        assert joined[2] == [(100.0, 100.0)]

    def test_nested_loop_matches_come_in_item_order(self):
        points = [(3.0, 0.0), (-2.0, 0.0), (0.0, 0.0), (1.0, 0.0)]
        joined = nested_loop_self_join(points, identity_key, fixed_box)
        assert joined[2] == points

    @settings(max_examples=30, deadline=None)
    @given(points_strategy)
    def test_property_nested_loop_is_the_box_predicate(self, points):
        joined = nested_loop_self_join(points, identity_key, fixed_box)
        for probe_index, probe in enumerate(points):
            box = fixed_box(probe)
            assert joined[probe_index] == [p for p in points if box.contains_point(p)]


class TestNeighborLists:
    def test_excludes_self_by_default(self):
        points = [(0.0, 0.0), (1.0, 0.0)]
        lists = neighbor_lists(points, identity_key, radius=2.0)
        assert lists[0] == [(1.0, 0.0)]
        assert lists[1] == [(0.0, 0.0)]

    def test_include_self(self):
        points = [(0.0, 0.0)]
        lists = neighbor_lists(points, identity_key, radius=1.0, include_self=True)
        assert lists[0] == [(0.0, 0.0)]

    def test_radius_is_euclidean(self):
        points = [(0.0, 0.0), (3.0, 4.0), (4.0, 4.0)]
        lists = neighbor_lists(points, identity_key, radius=5.0)
        assert (3.0, 4.0) in lists[0]
        assert (4.0, 4.0) not in lists[0]

    @pytest.mark.parametrize("radius", [0.0, 1.5, 4.0, 40.0])
    def test_scan_and_grid_agree(self, radius):
        rng = np.random.default_rng(1)
        points = [tuple(map(float, rng.uniform(-10, 10, size=2))) for _ in range(50)]
        reference = neighbor_lists(points, identity_key, radius=radius)
        candidate = vectorized_neighbor_lists(points, identity_key, radius)
        assert reference == candidate
