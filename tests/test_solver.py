"""Tests for value iteration / policy iteration / policy evaluation."""

import pytest

from repro.core.mdp import MDP, random_mdp
from repro.core.solver import value_iteration

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
