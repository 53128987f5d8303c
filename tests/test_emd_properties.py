"""Property-based tests for the EMD layer (hypothesis).

EMD over a metric ground is itself a metric on distributions with a
shared support; these tests pin the axioms on 1-D supports (where
``|x - y|`` is a true metric) plus the invariances ``emd_dicts``
promises: key order and total-mass rescaling must not matter.  The
dense transport kernel behind the fast path is also held to the
reference solver's optimum on random instances.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.minflow import transport_dense

from emd_oracle import emd, emd_dicts, transport


def _line_ground(positions):
    return [[abs(a - b) for b in positions] for a in positions]


#: Non-degenerate weight vectors (at least some mass, no negatives).
def _weights(k):
    return st.lists(
        st.floats(0.0, 10.0, allow_nan=False), min_size=k, max_size=k
    ).filter(lambda w: sum(w) > 1e-6)


def _positions(k):
    return st.lists(
        st.floats(-50.0, 50.0, allow_nan=False),
        min_size=k,
        max_size=k,
        unique=True,
    )


class TestMetricAxioms:
    """EMD on a shared support with metric ground costs is a metric."""

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(2, 5), data=st.data())
    def test_non_negative(self, k, data):
        pos = data.draw(_positions(k))
        p = data.draw(_weights(k))
        q = data.draw(_weights(k))
        assert emd(p, q, _line_ground(pos)) >= -1e-12

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(2, 5), data=st.data())
    def test_symmetric(self, k, data):
        pos = data.draw(_positions(k))
        p = data.draw(_weights(k))
        q = data.draw(_weights(k))
        ground = _line_ground(pos)
        assert emd(p, q, ground) == pytest.approx(emd(q, p, ground), abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(2, 5), data=st.data())
    def test_identity_of_indiscernibles(self, k, data):
        pos = data.draw(_positions(k))
        p = data.draw(_weights(k))
        assert emd(p, p, _line_ground(pos)) == pytest.approx(0.0, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(2, 4), data=st.data())
    def test_triangle_inequality(self, k, data):
        pos = data.draw(_positions(k))
        p = data.draw(_weights(k))
        q = data.draw(_weights(k))
        r = data.draw(_weights(k))
        ground = _line_ground(pos)
        d_pq = emd(p, q, ground)
        d_qr = emd(q, r, ground)
        d_pr = emd(p, r, ground)
        assert d_pr <= d_pq + d_qr + 1e-8


class TestDictInvariances:
    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(2, 5), data=st.data())
    def test_key_order_irrelevant(self, k, data):
        keys = data.draw(
            st.lists(st.integers(0, 100), min_size=k, max_size=k, unique=True)
        )
        p_w = data.draw(_weights(k))
        q_w = data.draw(_weights(k))
        p = dict(zip(keys, p_w))
        q = dict(zip(keys, q_w))
        p_rev = dict(zip(reversed(keys), reversed(p_w)))
        q_rev = dict(zip(reversed(keys), reversed(q_w)))
        dist = lambda a, b: abs(a - b)  # noqa: E731
        assert emd_dicts(p, q, dist) == pytest.approx(
            emd_dicts(p_rev, q_rev, dist), abs=1e-9
        )

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(2, 5),
        scale_p=st.floats(0.1, 100.0),
        scale_q=st.floats(0.1, 100.0),
        data=st.data(),
    )
    def test_mass_rescaling_irrelevant(self, k, scale_p, scale_q, data):
        keys = data.draw(
            st.lists(st.integers(0, 100), min_size=k, max_size=k, unique=True)
        )
        p_w = data.draw(_weights(k))
        q_w = data.draw(_weights(k))
        dist = lambda a, b: abs(a - b)  # noqa: E731
        baseline = emd_dicts(dict(zip(keys, p_w)), dict(zip(keys, q_w)), dist)
        scaled = emd_dicts(
            {key: scale_p * w for key, w in zip(keys, p_w)},
            {key: scale_q * w for key, w in zip(keys, q_w)},
            dist,
        )
        assert scaled == pytest.approx(baseline, abs=1e-8)


class TestDenseKernelAgreement:
    """transport_dense must reproduce the reference SSP optimum."""

    @settings(max_examples=80, deadline=None)
    @given(m=st.integers(1, 5), n=st.integers(1, 5), data=st.data())
    def test_matches_reference_transport(self, m, n, data):
        supply = data.draw(_weights(m))
        demand = data.draw(_weights(n))
        # Balance the totals (the transport contract requires it).
        total = sum(supply)
        factor = total / sum(demand)
        demand = [d * factor for d in demand]
        cost = data.draw(
            st.lists(
                st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        )
        ref = transport(supply, demand, cost)
        fast = transport_dense(supply, demand, cost)
        assert fast == pytest.approx(ref, abs=1e-7 * max(1.0, total))

    def test_rejects_unbalanced(self):
        with pytest.raises(ValueError):
            transport_dense([1.0], [2.0], [[0.0]])

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            transport_dense([1.0, -0.5], [0.25, 0.25], [[0.0, 1.0], [1.0, 0.0]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            transport_dense([], [1.0], [])

    def test_point_mass_exact(self):
        assert transport_dense([1.0], [1.0], [[3.5]]) == pytest.approx(3.5)

    def test_cross_shipping_beats_greedy(self):
        # A classic instance where the greedy (north-west corner) rule
        # is suboptimal; the kernel must find the true optimum 1.0.
        cost = [[0.0, 1.0], [1.0, 4.0]]
        assert transport_dense([0.5, 0.5], [0.0, 1.0], cost) == pytest.approx(2.5)
        assert transport_dense([0.5, 0.5], [1.0, 0.0], cost) == pytest.approx(0.5)
