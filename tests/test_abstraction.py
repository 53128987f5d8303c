"""Tests for similarity-driven state abstraction."""

import pytest

from repro.core.graph import MDPGraph
from repro.core.mdp import MDP, random_mdp
from repro.core.similarity import StructuralSimilarity
from repro.core.solver import value_iteration

from abstraction import abstract_mdp, cluster_states, lift_policy


def _twin_mdp():
    """u and v are exact structural twins; w is absorbing."""
    return MDP(
        states=["u", "v", "w"],
        actions=["a"],
        transitions={("u", "a"): {"w": 1.0}, ("v", "a"): {"w": 1.0}},
        rewards={("u", "a", "w"): 0.5, ("v", "a", "w"): 0.5},
    )


def _solve_similarity(mdp, **kw):
    return StructuralSimilarity(MDPGraph(mdp), c_s=1.0, c_a=0.9, **kw).solve()


class TestClustering:
    def test_twins_merge(self):
        sim = _solve_similarity(_twin_mdp())
        clustering = cluster_states(sim, threshold=0.05)
        assert clustering.assignment["u"] == clustering.assignment["v"]
        assert clustering.n_clusters == 2  # {u, v} and {w}

    def test_zero_threshold_keeps_all(self):
        mdp = random_mdp(6, 2, seed=31, absorbing=1)
        sim = _solve_similarity(mdp)
        clustering = cluster_states(sim, threshold=0.0)
        # Only exactly-identical states merge at threshold 0; random
        # rewards make that essentially impossible.
        assert clustering.n_clusters >= mdp.n_states - 1

    def test_huge_threshold_merges_live_states(self):
        mdp = random_mdp(6, 2, seed=31, absorbing=1)
        sim = _solve_similarity(mdp)
        clustering = cluster_states(sim, threshold=1.0)
        # Absorbing and live states never merge (Eq. 3 base case).
        assert clustering.n_clusters == 2

    def test_members(self):
        sim = _solve_similarity(_twin_mdp())
        clustering = cluster_states(sim, threshold=0.05)
        rep = clustering.assignment["u"]
        assert set(clustering.members(rep)) == {"u", "v"}

    def test_negative_threshold_rejected(self):
        sim = _solve_similarity(_twin_mdp())
        with pytest.raises(ValueError):
            cluster_states(sim, threshold=-0.1)


class TestAbstractMdp:
    def test_abstract_preserves_twin_values(self):
        mdp = _twin_mdp()
        sim = _solve_similarity(mdp)
        clustering = cluster_states(sim, threshold=0.05)
        abstract = abstract_mdp(mdp, clustering)
        assert abstract.n_states == 2
        sol_abs = value_iteration(abstract, rho=0.9)
        sol_full = value_iteration(mdp, rho=0.9)
        rep = clustering.assignment["u"]
        assert sol_abs.value(rep) == pytest.approx(sol_full.value("u"), abs=1e-6)

    def test_abstract_transitions_normalised(self):
        mdp = random_mdp(8, 2, seed=37, absorbing=1)
        sim = _solve_similarity(mdp, max_iter=20)
        clustering = cluster_states(sim, threshold=0.4)
        abstract = abstract_mdp(mdp, clustering)
        abstract.validate()  # checks distributions sum to 1

    def test_lift_policy_covers_all_live_states(self):
        mdp = random_mdp(8, 2, seed=37, absorbing=1)
        sim = _solve_similarity(mdp, max_iter=20)
        clustering = cluster_states(sim, threshold=0.4)
        abstract = abstract_mdp(mdp, clustering)
        lifted = lift_policy(value_iteration(abstract, rho=0.9), clustering)
        for s in mdp.states:
            if mdp.available_actions(s):
                rep = clustering.assignment[s]
                if abstract.available_actions(rep):
                    assert s in lifted

    def test_lifted_policy_near_optimal_for_tight_threshold(self):
        mdp = random_mdp(10, 2, seed=41, absorbing=1)
        sim = _solve_similarity(mdp, max_iter=30)
        clustering = cluster_states(sim, threshold=0.02)
        abstract = abstract_mdp(mdp, clustering)
        lifted = lift_policy(value_iteration(abstract, rho=0.9), clustering)
        from solver_oracle import policy_evaluation

        full = value_iteration(mdp, rho=0.9)
        # Only evaluate states where the lifted policy's action exists.
        usable = {s: a for s, a in lifted.items()
                  if a in mdp.available_actions(s)}
        values = policy_evaluation(mdp, usable, rho=0.9)
        for s, a in usable.items():
            # Eq. (10): loss bounded by threshold / (1 - rho), plus slack
            # for the clustering approximation.
            assert values[s] >= full.value(s) - 0.02 / (1 - 0.9) - 0.3
