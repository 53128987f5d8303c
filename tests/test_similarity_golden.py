"""Golden-regression tests for the Algorithm 1 fixed point.

A small hand-built MDP (two structurally identical live states, a
reward-skewed heavy state, two absorbing sinks) is solved once with the
reference solver (:mod:`similarity_oracle`) at tight tolerance and its
converged matrices are frozen on disk.  Both solvers must keep
reproducing those matrices to 1e-8, and the ``most_similar_state``
tie-breaking (lowest state index wins) stays pinned.

Regenerate the fixture after a *deliberate* semantic change with::

    PYTHONPATH=src python tests/test_similarity_golden.py
"""

import pathlib

import numpy as np
import pytest

from similarity_oracle import solve_reference

from repro.core.graph import MDPGraph
from repro.core.mdp import MDP
from repro.core.similarity import StructuralSimilarity

GOLDEN = pathlib.Path(__file__).parent / "data" / "similarity_golden.npz"

#: Solver constants baked into the fixture.
C_S, C_A, TOL = 0.95, 0.9, 1e-12


def canonical_mdp():
    """The frozen MDP behind the golden matrices.

    ``twin`` duplicates ``idle`` exactly (same transitions, same
    rewards) so the fixed point carries a genuine tie; ``sink1`` and
    ``sink2`` are absorbing (Eq. 3 base rows).
    """
    return MDP(
        states=["idle", "light", "heavy", "twin", "sink1", "sink2"],
        actions=["run", "halt"],
        transitions={
            ("idle", "run"): {"light": 0.6, "heavy": 0.4},
            ("idle", "halt"): {"sink1": 1.0},
            ("light", "run"): {"light": 0.5, "heavy": 0.3, "sink1": 0.2},
            ("light", "halt"): {"sink1": 0.7, "sink2": 0.3},
            ("heavy", "run"): {"heavy": 0.8, "sink2": 0.2},
            ("heavy", "halt"): {"sink2": 1.0},
            ("twin", "run"): {"light": 0.6, "heavy": 0.4},
            ("twin", "halt"): {"sink1": 1.0},
        },
        rewards={
            ("idle", "run", "light"): 0.8,
            ("idle", "run", "heavy"): 0.3,
            ("idle", "halt", "sink1"): 0.1,
            ("light", "run", "light"): 0.7,
            ("light", "run", "heavy"): 0.2,
            ("light", "run", "sink1"): 0.0,
            ("light", "halt", "sink1"): 0.2,
            ("light", "halt", "sink2"): 0.4,
            ("heavy", "run", "heavy"): 0.1,
            ("heavy", "run", "sink2"): 0.0,
            ("heavy", "halt", "sink2"): 0.9,
            ("twin", "run", "light"): 0.8,
            ("twin", "run", "heavy"): 0.3,
            ("twin", "halt", "sink1"): 0.1,
        },
    )


def solve_fast(graph, **kwargs):
    return StructuralSimilarity(graph, **kwargs).solve()


BOTH = pytest.mark.parametrize("solve", [solve_reference, solve_fast],
                               ids=["reference", "fast"])


def _solve(solve):
    return solve(MDPGraph(canonical_mdp()), c_s=C_S, c_a=C_A, tol=TOL, max_iter=500)


class TestGoldenMatrices:
    @pytest.fixture(scope="class")
    def golden(self):
        if not GOLDEN.exists():  # pragma: no cover - fixture must be committed
            pytest.fail(f"golden fixture missing: {GOLDEN}")
        with np.load(GOLDEN) as data:
            return {k: data[k] for k in data.files}

    @BOTH
    def test_solver_reproduces_golden(self, golden, solve):
        res = _solve(solve)
        np.testing.assert_allclose(res.state_sim, golden["state_sim"], atol=1e-8)
        np.testing.assert_allclose(res.action_sim, golden["action_sim"], atol=1e-8)

    def test_solvers_agree_pairwise(self):
        ref = _solve(solve_reference)
        fast = _solve(solve_fast)
        np.testing.assert_allclose(fast.state_sim, ref.state_sim, atol=1e-8)
        np.testing.assert_allclose(fast.action_sim, ref.action_sim, atol=1e-8)

    def test_twin_states_are_identical(self, golden):
        g = MDPGraph(canonical_mdp())
        sim = golden["state_sim"]
        i, j = g.state_index("idle"), g.state_index("twin")
        assert sim[i, j] == pytest.approx(C_S, abs=1e-8)


class TestTieBreaking:
    """The first maximiser (lowest state index) wins ties, always."""

    @BOTH
    def test_exact_tie_resolves_to_lowest_index(self, solve):
        res = _solve(solve)
        # "idle" and "twin" are exact copies, so "light" is equally
        # similar to both -- and they are its row maximum; argmax must
        # keep the first (lower state index).
        assert res.sigma_s("light", "idle") == res.sigma_s("light", "twin")
        assert res.sigma_s("light", "idle") > res.sigma_s("light", "heavy")
        best, _ = res.most_similar_state("light")
        assert best == "idle"

    def test_both_solvers_pick_same_surrogates(self):
        ref = _solve(solve_reference)
        fast = _solve(solve_fast)
        for state in canonical_mdp().states:
            ref_best, ref_sim = ref.most_similar_state(state)
            fast_best, fast_sim = fast.most_similar_state(state)
            assert ref_best == fast_best
            assert ref_sim == pytest.approx(fast_sim, abs=1e-8)


def _regenerate():  # pragma: no cover - manual fixture refresh
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    res = _solve(solve_reference)
    np.savez(
        GOLDEN,
        state_sim=res.state_sim,
        action_sim=res.action_sim,
        c_s=np.array(C_S),
        c_a=np.array(C_A),
        tol=np.array(TOL),
    )
    print(f"wrote {GOLDEN} ({res.iterations} iterations, residual {res.residual:.2e})")


if __name__ == "__main__":
    _regenerate()
