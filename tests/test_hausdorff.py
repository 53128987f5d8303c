"""Tests for the Hausdorff distance helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from similarity_oracle import directed_hausdorff, hausdorff


def _abs_dist(a, b):
    return abs(a - b)


class TestDirectedHausdorff:
    def test_subset_is_zero(self):
        assert directed_hausdorff([1.0, 2.0], [0.0, 1.0, 2.0, 3.0], _abs_dist) == 0.0

    def test_superset_is_not_zero(self):
        assert directed_hausdorff([0.0, 5.0], [0.0], _abs_dist) == 5.0

    def test_empty_a(self):
        assert directed_hausdorff([], [1.0], _abs_dist) == 0.0

    def test_empty_b_with_nonempty_a(self):
        assert directed_hausdorff([1.0], [], _abs_dist) == 1.0


class TestHausdorff:
    def test_symmetric(self):
        a, b = [0.0, 1.0], [0.5, 3.0]
        assert hausdorff(a, b, _abs_dist) == hausdorff(b, a, _abs_dist)

    def test_identical_sets(self):
        assert hausdorff([1.0, 2.0], [2.0, 1.0], _abs_dist) == 0.0

    def test_known_value(self):
        # h([0,1] -> [0]) = 1; h([0] -> [0,1]) = 0 -> max 1.
        assert hausdorff([0.0, 1.0], [0.0], _abs_dist) == 1.0

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(0.0, 10.0), min_size=1, max_size=6),
        st.lists(st.floats(0.0, 10.0), min_size=1, max_size=6),
        st.lists(st.floats(0.0, 10.0), min_size=1, max_size=6),
    )
    def test_triangle_inequality(self, a, b, c):
        ab = hausdorff(a, b, _abs_dist)
        bc = hausdorff(b, c, _abs_dist)
        ac = hausdorff(a, c, _abs_dist)
        assert ac <= ab + bc + 1e-9

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
    )
    def test_bounded_by_max_pointwise_distance(self, a, b):
        h = hausdorff(a, b, _abs_dist)
        worst = max(_abs_dist(x, y) for x in a for y in b)
        assert h <= worst + 1e-9
