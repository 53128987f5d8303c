"""Empirical verification of the Eq. (10) competitiveness bound.

With ``C_S = 1`` and ``C_A = rho`` the converged structural distance
must dominate optimal value differences scaled by ``1 - rho``.  These
tests check the bound pairwise on random MDPs and on the decision MDPs
CAPMAN's profiler builds during real cells -- the library's executable
version of the paper's Section III-D proof.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decision_mdps import decision_mdps
from repro.core.bounds import (
    competitiveness_factor,
    value_difference_bound,
    verify_action_bound,
    verify_value_bound,
)
from repro.core.graph import MDPGraph
from repro.core.mdp import random_mdp
from repro.core.similarity import StructuralSimilarity
from repro.core.solver import value_iteration


def _check(seed: int, rho: float, n_states: int = 6, n_actions: int = 2):
    mdp = random_mdp(n_states, n_actions, branching=2, seed=seed, absorbing=1)
    return _solve(mdp, rho)


def _solve(mdp, rho: float):
    sol = value_iteration(mdp, rho=rho, tol=1e-10)
    sim = StructuralSimilarity(
        MDPGraph(mdp), c_s=1.0, c_a=max(rho, 1e-6), tol=1e-6, max_iter=200
    ).solve()
    return mdp, sol, sim


class TestBoundArithmetic:
    def test_value_difference_bound(self):
        assert value_difference_bound(0.5, 0.5) == pytest.approx(1.0)
        assert value_difference_bound(0.0, 0.9) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            value_difference_bound(0.5, 1.0)
        with pytest.raises(ValueError):
            value_difference_bound(-0.1, 0.5)

    def test_competitiveness_factor_paper_example(self):
        # The paper's example: rho = 0.05 gives ~1.05-competitiveness.
        assert competitiveness_factor(0.05) == pytest.approx(1.0526, abs=1e-3)

    def test_competitiveness_grows_with_rho(self):
        assert competitiveness_factor(0.9) > competitiveness_factor(0.5)


class TestValueBound:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("rho", [0.3, 0.6, 0.9])
    def test_bound_holds_on_random_mdps(self, seed, rho):
        mdp, sol, sim = _check(seed, rho)
        check = verify_value_bound(mdp, sol, sim, rho, tolerance=1e-3)
        assert check.holds, f"violated by {check.worst_gap} at {check.worst_pair}"

    def test_check_counts_pairs(self):
        mdp, sol, sim = _check(5, 0.5)
        check = verify_value_bound(mdp, sol, sim, 0.5)
        n = mdp.n_states
        assert check.pairs_checked == n * (n - 1) // 2


class TestActionBound:
    @pytest.mark.parametrize("seed", [0, 2, 4])
    def test_bound_holds(self, seed):
        rho = 0.7
        mdp, sol, sim = _check(seed, rho)
        check = verify_action_bound(mdp, sol, sim, rho, tolerance=1e-3)
        assert check.holds, f"violated by {check.worst_gap} at {check.worst_pair}"


class TestProfilerDecisionMdps:
    """Eq. (10) on every MDP a CAPMAN cell builds on the benchmark's
    trace kinds (``tests/decision_mdps.py``), not only on random ones."""

    @pytest.mark.parametrize("rho", [0.3, 0.6, 0.9])
    def test_value_and_action_bounds_hold(self, rho):
        mdps = decision_mdps()
        assert len(mdps) >= 4
        for label, build, mdp in mdps:
            mdp, sol, sim = _solve(mdp, rho)
            for verify in (verify_value_bound, verify_action_bound):
                check = verify(mdp, sol, sim, rho, tolerance=1e-3)
                assert check.pairs_checked > 0
                assert check.holds, (
                    f"{verify.__name__} on {label} build {build}: violated "
                    f"by {check.worst_gap} at {check.worst_pair}")


class TestBoundProperty:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000), rho=st.sampled_from([0.2, 0.5, 0.8]))
    def test_bound_holds_hypothesis(self, seed, rho):
        mdp, sol, sim = _check(seed, rho, n_states=5)
        check = verify_value_bound(mdp, sol, sim, rho, tolerance=2e-3)
        assert check.holds, f"violated by {check.worst_gap} at {check.worst_pair}"
