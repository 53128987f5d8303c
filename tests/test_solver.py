"""Tests for value iteration, the certified policy, policy iteration
and policy evaluation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mdp import MDP, random_mdp
from repro.core.solver import (CERTIFY_MAX_STATES, optimal_policy,
                               value_iteration)

from decision_mdps import decision_mdps
from solver_oracle import policy_evaluation, policy_iteration


def _chain_mdp():
    """s0 -a-> s1 -a-> s2 (absorbing), reward 1 on the last hop."""
    return MDP(
        states=["s0", "s1", "s2"],
        actions=["a"],
        transitions={("s0", "a"): {"s1": 1.0}, ("s1", "a"): {"s2": 1.0}},
        rewards={("s1", "a", "s2"): 1.0},
    )


def _choice_mdp():
    """One state, two self-loop actions with rewards 0.2 / 0.9."""
    return MDP(
        states=["s"],
        actions=["lo", "hi"],
        transitions={("s", "lo"): {"s": 1.0}, ("s", "hi"): {"s": 1.0}},
        rewards={("s", "lo", "s"): 0.2, ("s", "hi", "s"): 0.9},
    )


class TestValueIteration:
    def test_chain_values(self):
        sol = value_iteration(_chain_mdp(), rho=0.5, tol=1e-10)
        assert sol.value("s2") == 0.0
        assert sol.value("s1") == pytest.approx(1.0)
        assert sol.value("s0") == pytest.approx(0.5)

    def test_picks_better_action(self):
        sol = value_iteration(_choice_mdp(), rho=0.9)
        assert sol.policy["s"] == "hi"
        assert sol.value("s") == pytest.approx(0.9 / (1 - 0.9), rel=1e-4)

    def test_value_bounded_by_geometric_series(self):
        mdp = random_mdp(10, 3, seed=2)
        rho = 0.8
        sol = value_iteration(mdp, rho=rho)
        vmax = 1.0 / (1.0 - rho)
        assert all(0.0 <= v <= vmax + 1e-6 for v in sol.values.values())

    def test_invalid_rho_rejected(self):
        with pytest.raises(ValueError):
            value_iteration(_chain_mdp(), rho=1.0)

    def test_residual_below_tolerance(self):
        sol = value_iteration(random_mdp(8, 2, seed=1), rho=0.9, tol=1e-9)
        assert sol.residual < 1e-9

    def test_absorbing_states_have_no_policy_entry(self):
        sol = value_iteration(_chain_mdp(), rho=0.9)
        assert sol.action("s2") is None

    def test_q_consistent_with_v(self):
        mdp = random_mdp(8, 3, seed=4)
        sol = value_iteration(mdp, rho=0.85, tol=1e-10)
        for s in mdp.states:
            acts = mdp.available_actions(s)
            if acts:
                assert sol.value(s) == pytest.approx(
                    max(sol.q_values[(s, a)] for a in acts), abs=1e-6
                )


class TestPolicyEvaluation:
    def test_matches_optimal_for_optimal_policy(self):
        mdp = random_mdp(8, 3, seed=7)
        sol = value_iteration(mdp, rho=0.9, tol=1e-10)
        values = policy_evaluation(mdp, sol.policy, rho=0.9, tol=1e-10)
        for s in mdp.states:
            assert values[s] == pytest.approx(sol.value(s), abs=1e-6)

    def test_suboptimal_policy_valued_lower(self):
        mdp = _choice_mdp()
        bad = {"s": "lo"}
        values = policy_evaluation(mdp, bad, rho=0.9, tol=1e-10)
        sol = value_iteration(mdp, rho=0.9, tol=1e-10)
        assert values["s"] < sol.value("s")


class TestPolicyIteration:
    def test_agrees_with_value_iteration(self):
        mdp = random_mdp(10, 3, seed=11)
        vi = value_iteration(mdp, rho=0.9, tol=1e-10)
        pi = policy_iteration(mdp, rho=0.9, tol=1e-10)
        for s in mdp.states:
            assert pi.value(s) == pytest.approx(vi.value(s), abs=1e-5)

    def test_policies_equally_good(self):
        mdp = random_mdp(9, 2, seed=13)
        vi = value_iteration(mdp, rho=0.85, tol=1e-10)
        pi = policy_iteration(mdp, rho=0.85, tol=1e-10)
        # The argmax may tie; compare achieved values instead.
        v_pi = policy_evaluation(mdp, pi.policy, rho=0.85, tol=1e-10)
        for s in mdp.states:
            assert v_pi[s] == pytest.approx(vi.value(s), abs=1e-5)

    def test_converges_in_few_iterations(self):
        pi = policy_iteration(random_mdp(8, 2, seed=17), rho=0.9)
        assert pi.iterations < 20


def _certified_equals_value_iteration(mdp, rho, **kwargs) -> bool:
    """optimal_policy returns value iteration's policy; was it certified?"""
    policy, certified = optimal_policy(mdp, rho, **kwargs)
    want = value_iteration(mdp, rho, **kwargs).policy
    assert policy == want
    assert list(policy) == list(want)
    return certified


class TestOptimalPolicy:
    @pytest.mark.parametrize("rho", [0.3, 0.6, 0.9])
    def test_profiler_decision_mdps(self, rho):
        """Every MDP a CAPMAN cell builds on the benchmark's trace
        kinds: same policy, and the certificate takes each one."""
        certified = [_certified_equals_value_iteration(mdp, rho)
                     for _, _, mdp in decision_mdps()]
        assert certified and all(certified)

    @settings(max_examples=60, deadline=None)
    @given(n_states=st.integers(1, CERTIFY_MAX_STATES + 2),
           n_actions=st.integers(1, 3), branching=st.integers(1, 4),
           absorbing=st.integers(0, 2), seed=st.integers(0, 10_000),
           rho=st.sampled_from([0.0, 0.3, 0.6, 0.9, 0.99]))
    def test_random_mdps(self, n_states, n_actions, branching, absorbing,
                         seed, rho):
        mdp = random_mdp(n_states, n_actions, branching=branching,
                         seed=seed, absorbing=min(absorbing, n_states - 1))
        _certified_equals_value_iteration(mdp, rho)

    def test_exact_tie_takes_value_iteration(self):
        """Two actions with equal Q everywhere: no margin proves an
        argmax, so value iteration answers (first action wins)."""
        mdp = MDP(
            states=["s"],
            actions=["a", "b"],
            transitions={("s", "a"): {"s": 1.0}, ("s", "b"): {"s": 1.0}},
            rewards={("s", "a", "s"): 0.5, ("s", "b", "s"): 0.5},
        )
        assert not _certified_equals_value_iteration(mdp, 0.9)
        assert optimal_policy(mdp, 0.9)[0] == {"s": "a"}

    def test_unfinishable_sweep_budget_takes_value_iteration(self):
        """At rho 0.99 value iteration needs ~2,000 sweeps to get below
        tol; with 50 it stops on max_iter, which the certificate's
        margin does not cover."""
        capped = value_iteration(_choice_mdp(), 0.99, max_iter=50)
        assert capped.iterations == 50 and capped.residual >= 1e-8
        assert not _certified_equals_value_iteration(
            _choice_mdp(), 0.99, max_iter=50)
        assert _certified_equals_value_iteration(_choice_mdp(), 0.99)

    def test_large_mdp_takes_value_iteration(self):
        mdp = random_mdp(CERTIFY_MAX_STATES + 1, 2, seed=3)
        assert not _certified_equals_value_iteration(mdp, 0.9)

    def test_absorbing_only_successors_certified(self):
        assert _certified_equals_value_iteration(_chain_mdp(), 0.5)

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            optimal_policy(_choice_mdp(), rho=1.0)
