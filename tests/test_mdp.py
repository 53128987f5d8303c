"""Tests for the MDP container."""

import numpy as np
import pytest

from policy_rollout import sample_successor
from repro.core.mdp import MDP, random_mdp


def _two_state_mdp():
    return MDP(
        states=["s0", "s1"],
        actions=["a"],
        transitions={("s0", "a"): {"s1": 1.0}, ("s1", "a"): {"s0": 1.0}},
        rewards={("s0", "a", "s1"): 1.0, ("s1", "a", "s0"): 0.0},
    )


class TestMDPValidation:
    def test_valid_mdp_constructs(self):
        mdp = _two_state_mdp()
        assert mdp.n_states == 2
        assert mdp.n_actions == 1

    def test_duplicate_states_rejected(self):
        with pytest.raises(ValueError):
            MDP(["s", "s"], ["a"], {})

    def test_unnormalised_transitions_rejected(self):
        with pytest.raises(ValueError):
            MDP(["s"], ["a"], {("s", "a"): {"s": 0.5}})

    def test_unknown_successor_rejected(self):
        with pytest.raises(ValueError):
            MDP(["s"], ["a"], {("s", "a"): {"t": 1.0}})

    def test_reward_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            MDP(
                ["s"],
                ["a"],
                {("s", "a"): {"s": 1.0}},
                {("s", "a", "s"): 1.5},
            )

    def test_empty_successor_distribution_rejected(self):
        with pytest.raises(ValueError):
            MDP(["s"], ["a"], {("s", "a"): {}})


class TestMDPQueries:
    def test_available_actions(self):
        mdp = _two_state_mdp()
        assert mdp.available_actions("s0") == ["a"]

    def test_absorbing_detection(self):
        mdp = MDP(["s", "t"], ["a"], {("s", "a"): {"t": 1.0}})
        assert not mdp.is_absorbing("s")
        assert mdp.is_absorbing("t")

    def test_expected_reward(self):
        mdp = MDP(
            ["s", "t", "u"],
            ["a"],
            {("s", "a"): {"t": 0.5, "u": 0.5}},
            {("s", "a", "t"): 1.0, ("s", "a", "u"): 0.0},
        )
        assert mdp.expected_reward("s", "a") == pytest.approx(0.5)

    def test_missing_reward_defaults_to_zero(self):
        mdp = MDP(["s"], ["a"], {("s", "a"): {"s": 1.0}})
        assert mdp.reward("s", "a", "s") == 0.0

    def test_sample_successor_respects_support(self):
        mdp = _two_state_mdp()
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert sample_successor(mdp, "s0", "a", rng) == "s1"


class TestRandomMdp:
    def test_shapes(self):
        mdp = random_mdp(8, 3, branching=2, seed=1)
        assert mdp.n_states == 8
        assert mdp.n_actions == 3

    def test_deterministic_by_seed(self):
        a = random_mdp(5, 2, seed=42)
        b = random_mdp(5, 2, seed=42)
        assert a.transitions.keys() == b.transitions.keys()
        for key in a.transitions:
            assert a.transitions[key] == b.transitions[key]

    def test_absorbing_states_have_no_actions(self):
        mdp = random_mdp(6, 2, seed=0, absorbing=2)
        absorbing = [s for s in mdp.states if mdp.is_absorbing(s)]
        assert len(absorbing) == 2

    def test_rewards_in_unit_interval(self):
        mdp = random_mdp(6, 2, seed=5)
        assert all(0.0 <= r <= 1.0 for r in mdp.rewards.values())

    def test_all_absorbing_rejected(self):
        with pytest.raises(ValueError):
            random_mdp(3, 2, absorbing=3)
