"""Convergence-contract tests for the Algorithm 1 solvers.

The paper proves the similarity recursion contracts to a unique fixed
point for discounts below one.  These tests hold both solver flavours
to the observable consequences: residuals shrink to the tolerance,
``max_iter`` is a hard cap, and the Eq. (3) base-case entries are fixed
from the first iteration onwards.
"""

import numpy as np
import pytest

from similarity_oracle import solve_reference

from repro.core.graph import MDPGraph
from repro.core.mdp import random_mdp
from repro.core.similarity import StructuralSimilarity


def solve_fast(graph, **kwargs):
    return StructuralSimilarity(graph, **kwargs).solve()


BOTH = pytest.mark.parametrize("solve", [solve_reference, solve_fast],
                               ids=["reference", "fast"])


def _graph(seed=3, n_states=8, absorbing=2):
    return MDPGraph(random_mdp(n_states, 2, branching=3, seed=seed, absorbing=absorbing))


class TestResiduals:
    @BOTH
    def test_residual_reaches_tol_for_contractive_discounts(self, solve):
        res = solve(_graph(), c_s=0.9, c_a=0.9, tol=1e-6, max_iter=200)
        assert res.residual <= 1e-6
        assert res.iterations < 200

    @BOTH
    @pytest.mark.parametrize("seed", [1, 2, 7])
    def test_residual_history_monotone_nonincreasing(self, solve, seed):
        res = solve(_graph(seed=seed), c_s=0.95, c_a=0.95, tol=1e-10, max_iter=300)
        residuals = res.stats.residuals
        assert len(residuals) == res.iterations
        for earlier, later in zip(residuals, residuals[1:]):
            assert later <= earlier + 1e-12
        assert residuals[-1] == pytest.approx(res.residual)

    @BOTH
    def test_residual_contraction_rate(self, solve):
        """Successive residuals shrink at least geometrically with the
        discount (the contraction modulus is at most max(c_s, c_a))."""
        c = 0.8
        res = solve(_graph(seed=11), c_s=c, c_a=c, tol=1e-12, max_iter=400)
        residuals = [r for r in res.stats.residuals if r > 1e-13]
        for earlier, later in zip(residuals, residuals[1:]):
            assert later <= c * earlier + 1e-12


class TestMaxIter:
    @BOTH
    @pytest.mark.parametrize("cap", [1, 2, 5])
    def test_max_iter_is_a_hard_cap(self, solve, cap):
        res = solve(_graph(), c_s=0.99, c_a=0.99, tol=1e-15, max_iter=cap)
        assert res.iterations == cap
        assert len(res.stats.residuals) == cap


class TestBaseCasesStayFixed:
    """Eq. (3) rows must survive every iteration, not just the last."""

    @BOTH
    @pytest.mark.parametrize("cap", [1, 2, 5])
    def test_absorbing_rows_fixed_at_every_horizon(self, solve, cap):
        graph = _graph(seed=5)
        res = solve(graph, c_s=0.95, c_a=0.95, tol=1e-15, max_iter=cap)
        absorbing = [i for i, s in enumerate(graph.state_nodes) if graph.is_absorbing(s)]
        live = [i for i in range(len(graph.state_nodes)) if i not in absorbing]
        assert absorbing, "fixture graph must contain absorbing states"
        sim = res.state_sim
        assert np.allclose(np.diag(sim), 1.0)
        for i in absorbing:
            for j in live:
                assert sim[i, j] == 0.0
                assert sim[j, i] == 0.0
        for i in absorbing:
            for j in absorbing:
                if i != j:
                    # d_absorbing defaults to 1.0 -> similarity 0.
                    assert sim[i, j] == 0.0

    @BOTH
    def test_d_absorbing_zero_pins_absorbing_pairs_to_one(self, solve):
        graph = _graph(seed=5)
        res = solve(graph, d_absorbing=0.0, tol=1e-8, max_iter=100)
        absorbing = [i for i, s in enumerate(graph.state_nodes) if graph.is_absorbing(s)]
        for i in absorbing:
            for j in absorbing:
                assert res.state_sim[i, j] == 1.0


class TestStatsRecord:
    @BOTH
    def test_stats_mode_and_timing_populated(self, solve):
        res = solve(_graph(), tol=1e-6)
        stats = res.stats
        assert stats is not None
        assert stats.mode == ("fast" if solve is solve_fast else "reference")
        assert stats.iterations == res.iterations
        assert stats.total_s >= 0.0
        assert stats.action_refresh_s >= 0.0
        assert stats.state_refresh_s >= 0.0

    def test_fast_mode_reports_emd_counters(self):
        res = StructuralSimilarity(_graph(), tol=1e-6).solve()
        emd = res.stats.emd
        assert emd is not None
        assert emd.calls > 0
        assert emd.batched + emd.closed_form + emd.solves + emd.memo_hits + emd.reuse_hits > 0
