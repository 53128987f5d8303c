"""Tests for policy objects and rollout estimation."""

import pytest

from repro.core.mdp import MDP, random_mdp
from repro.core.solver import value_iteration

from policy_rollout import RandomPolicy, TabularPolicy, rollout_return


def _choice_mdp():
    return MDP(
        states=["s"],
        actions=["lo", "hi"],
        transitions={("s", "lo"): {"s": 1.0}, ("s", "hi"): {"s": 1.0}},
        rewards={("s", "lo", "s"): 0.1, ("s", "hi", "s"): 0.9},
    )


class TestPolicies:
    def test_tabular_lookup(self):
        p = TabularPolicy({"s": "hi"})
        assert p.action("s") == "hi"
        assert p.action("unknown") is None

    def test_random_policy_stays_in_action_set(self):
        mdp = random_mdp(6, 3, seed=2)
        p = RandomPolicy(mdp, seed=0)
        for s in mdp.states:
            a = p.action(s)
            if mdp.available_actions(s):
                assert a in mdp.available_actions(s)

    def test_random_policy_none_on_absorbing(self):
        mdp = random_mdp(5, 2, seed=2, absorbing=1)
        p = RandomPolicy(mdp, seed=0)
        absorbing = [s for s in mdp.states if mdp.is_absorbing(s)][0]
        assert p.action(absorbing) is None


class TestRollout:
    def test_rollout_matches_analytic_value(self):
        mdp = _choice_mdp()
        rho = 0.9
        est = rollout_return(mdp, TabularPolicy({"s": "hi"}), "s", rho,
                             horizon=300, n_rollouts=4, seed=1)
        assert est == pytest.approx(0.9 / (1 - rho), rel=0.01)

    def test_better_policy_rolls_out_higher(self):
        mdp = _choice_mdp()
        hi = rollout_return(mdp, TabularPolicy({"s": "hi"}), "s", 0.8)
        lo = rollout_return(mdp, TabularPolicy({"s": "lo"}), "s", 0.8)
        assert hi > lo

    def test_optimal_policy_beats_random_on_average(self):
        mdp = random_mdp(8, 3, seed=10)
        sol = value_iteration(mdp, rho=0.8)
        opt = rollout_return(mdp, TabularPolicy(sol.policy), mdp.states[0], 0.8,
                             n_rollouts=64, seed=3)
        rnd = rollout_return(mdp, RandomPolicy(mdp, seed=4), mdp.states[0], 0.8,
                             n_rollouts=64, seed=3)
        assert opt >= rnd - 0.05

    def test_invalid_rho(self):
        with pytest.raises(ValueError):
            rollout_return(_choice_mdp(), TabularPolicy({}), "s", 1.0)
