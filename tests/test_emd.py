"""Tests for the Earth Mover's Distance, including hypothesis checks
against the 1-D closed form."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emd_oracle import emd, emd_1d, emd_dicts


def _line_ground(positions):
    return [[abs(a - b) for b in positions] for a in positions]


class TestEmd:
    def test_identical_distributions(self):
        assert emd([0.5, 0.5], [0.5, 0.5], _line_ground([0.0, 1.0])) == 0.0

    def test_point_mass_move(self):
        assert emd([1.0, 0.0], [0.0, 1.0], _line_ground([0.0, 2.0])) == pytest.approx(2.0)

    def test_normalises_inputs(self):
        # Unnormalised masses with the same shape are still distance 0.
        assert emd([2.0, 2.0], [5.0, 5.0], _line_ground([0.0, 1.0])) == pytest.approx(0.0)

    def test_rectangular_supports(self):
        # One point vs two points on a line: mass splits at distance 1/2.
        assert emd([1.0], [0.5, 0.5], [[0.0, 1.0]]) == pytest.approx(0.5)

    def test_bad_ground_shape_rejected(self):
        with pytest.raises(ValueError):
            emd([1.0], [0.5, 0.5], [[0.0]])

    def test_equal_values_over_disjoint_supports_not_shortcut(self):
        # p and q have identical masses but live on different points;
        # the distance must come from the ground matrix, not a fast path.
        assert emd([0.5, 0.5], [0.5, 0.5],
                   [[2.0, 2.0], [2.0, 2.0]]) == pytest.approx(2.0)

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError):
            emd([0.0, 0.0], [0.5, 0.5], _line_ground([0.0, 1.0]))

    def test_symmetry(self):
        p = [0.2, 0.3, 0.5]
        q = [0.6, 0.1, 0.3]
        g = _line_ground([0.0, 1.0, 2.5])
        assert emd(p, q, g) == pytest.approx(emd(q, p, g))

    def test_triangle_inequality_on_line(self):
        g = _line_ground([0.0, 1.0, 2.0])
        p = [1.0, 0.0, 0.0]
        q = [0.0, 1.0, 0.0]
        r = [0.0, 0.0, 1.0]
        assert emd(p, r, g) <= emd(p, q, g) + emd(q, r, g) + 1e-9


class TestEmd1d:
    def test_matches_flow_solver_simple(self):
        pos = [0.0, 1.0, 3.0]
        p = [0.5, 0.5, 0.0]
        q = [0.0, 0.5, 0.5]
        assert emd_1d(p, q, pos) == pytest.approx(emd(p, q, _line_ground(pos)))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5),
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5),
    )
    def test_matches_flow_solver_random(self, p_raw, q_raw):
        n = min(len(p_raw), len(q_raw))
        p, q = p_raw[:n], q_raw[:n]
        positions = [float(i) * 0.7 for i in range(n)]
        expected = emd_1d(p, q, positions)
        actual = emd(p, q, _line_ground(positions))
        assert actual == pytest.approx(expected, abs=1e-6)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            emd_1d([1.0], [0.5, 0.5], [0.0, 1.0])


class TestEmdDicts:
    def test_sparse_supports(self):
        p = {"a": 0.7, "b": 0.3}
        q = {"b": 0.3, "c": 0.7}
        dist = lambda x, y: 0.0 if x == y else 1.0
        # 0.7 mass must move from a to c at distance 1.
        assert emd_dicts(p, q, dist) == pytest.approx(0.7)

    def test_equal_distributions(self):
        p = {"x": 0.4, "y": 0.6}
        dist = lambda a, b: 0.0 if a == b else 1.0
        assert emd_dicts(p, dict(p), dist) == pytest.approx(0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            emd_dicts({}, {"a": 1.0}, lambda a, b: 1.0)

    def test_bounded_by_max_distance(self):
        rng = np.random.default_rng(0)
        keys = list("abcde")
        p = {k: float(v) for k, v in zip(keys, rng.dirichlet(np.ones(5)))}
        q = {k: float(v) for k, v in zip(keys, rng.dirichlet(np.ones(5)))}
        dist = lambda a, b: 0.0 if a == b else 0.8
        assert 0.0 <= emd_dicts(p, q, dist) <= 0.8 + 1e-9
