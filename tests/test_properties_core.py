"""Property-based tests on the core MDP machinery (hypothesis)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import MDPGraph
from repro.core.mdp import MDP, random_mdp
from repro.core.similarity import StructuralSimilarity
from repro.core.solver import value_iteration

from solver_oracle import policy_evaluation


class TestSolverProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), rho=st.sampled_from([0.3, 0.7, 0.95]))
    def test_values_bounded_by_geometric_sum(self, seed, rho):
        mdp = random_mdp(7, 2, branching=2, seed=seed)
        sol = value_iteration(mdp, rho=rho)
        vmax = 1.0 / (1.0 - rho)
        assert all(-1e-9 <= v <= vmax + 1e-6 for v in sol.values.values())

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_optimal_policy_weakly_dominates_any_fixed_action(self, seed):
        mdp = random_mdp(6, 3, branching=2, seed=seed)
        rho = 0.8
        sol = value_iteration(mdp, rho=rho, tol=1e-10)
        for a in mdp.actions:
            fixed = {s: a for s in mdp.states if a in mdp.available_actions(s)}
            values = policy_evaluation(mdp, fixed, rho=rho, tol=1e-10)
            for s in fixed:
                assert sol.value(s) >= values[s] - 1e-6

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), rho=st.sampled_from([0.2, 0.6]))
    def test_discount_monotonicity(self, seed, rho):
        """Larger discounting horizon never decreases optimal values
        (all rewards are non-negative)."""
        mdp = random_mdp(6, 2, branching=2, seed=seed)
        low = value_iteration(mdp, rho=rho)
        high = value_iteration(mdp, rho=rho + 0.2)
        for s in mdp.states:
            assert high.value(s) >= low.value(s) - 1e-6

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_reward_scaling_scales_values(self, seed):
        """Scaling all rewards by c scales V* by c (linearity)."""
        mdp = random_mdp(5, 2, branching=2, seed=seed)
        scaled = MDP(
            mdp.states,
            mdp.actions,
            mdp.transitions,
            {k: 0.5 * r for k, r in mdp.rewards.items()},
        )
        rho = 0.7
        a = value_iteration(mdp, rho=rho, tol=1e-10)
        b = value_iteration(scaled, rho=rho, tol=1e-10)
        for s in mdp.states:
            assert b.value(s) == pytest.approx(0.5 * a.value(s), abs=1e-6)


class TestSimilarityProperties:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_similarity_matrices_bounded_and_symmetric(self, seed):
        import numpy as np

        mdp = random_mdp(5, 2, branching=2, seed=seed, absorbing=1)
        res = StructuralSimilarity(MDPGraph(mdp), c_s=0.9, c_a=0.9,
                                   max_iter=30).solve()
        assert np.all(res.state_sim >= -1e-9)
        assert np.all(res.state_sim <= 1.0 + 1e-9)
        assert np.allclose(res.state_sim, res.state_sim.T, atol=1e-9)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_identical_twin_states_maximally_similar(self, seed):
        """Duplicating a state yields a pair at similarity ~c_s."""
        base = random_mdp(4, 2, branching=2, seed=seed)
        # Clone state s0 as s0_twin with identical outgoing structure.
        twin = "s0_twin"
        states = list(base.states) + [twin]
        transitions = dict(base.transitions)
        rewards = dict(base.rewards)
        for a in base.available_actions("s0"):
            transitions[(twin, a)] = dict(base.transitions[("s0", a)])
            for sp, p in base.transitions[("s0", a)].items():
                rewards[(twin, a, sp)] = base.reward("s0", a, sp)
        mdp = MDP(states, base.actions, transitions, rewards)
        res = StructuralSimilarity(MDPGraph(mdp), c_s=1.0, c_a=0.9,
                                   tol=1e-5, max_iter=60).solve()
        assert res.sigma_s("s0", twin) == pytest.approx(1.0, abs=1e-3)
