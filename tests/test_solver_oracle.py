"""The compiled value iteration equals the dictionary-walking oracle exactly.

:func:`repro.core.solver.value_iteration` sweeps index lists compiled
once per MDP; ``tests/solver_oracle.py`` keeps the form it replaced.
Fleet/scalar byte identity for CAPMAN rests on the two agreeing to the
last bit, so every field is compared with ``==``: values, Q, policy,
iteration count and final residual.
"""

from __future__ import annotations

import pytest

from decision_mdps import decision_mdps
from repro.core.mdp import MDP, random_mdp
from repro.core.solver import value_iteration
from solver_oracle import value_iteration_reference


def _assert_identical(mdp: MDP, rho: float, **kwargs) -> None:
    got = value_iteration(mdp, rho, **kwargs)
    want = value_iteration_reference(mdp, rho, **kwargs)
    assert got.values == want.values
    assert list(got.values) == list(want.values)
    assert got.q_values == want.q_values
    assert list(got.q_values) == list(want.q_values)
    assert got.policy == want.policy
    assert list(got.policy) == list(want.policy)
    assert got.iterations == want.iterations
    assert got.residual == want.residual


@pytest.mark.parametrize("rho", [0.3, 0.6, 0.9])
@pytest.mark.parametrize("seed", range(6))
def test_random_mdps(seed, rho):
    mdp = random_mdp(7, 3, branching=3, seed=seed, absorbing=seed % 3)
    _assert_identical(mdp, rho)


@pytest.mark.parametrize("seed", range(3))
def test_iteration_cap_and_tight_tolerance(seed):
    """A capped run stops on the same sweep with the same residual."""
    mdp = random_mdp(6, 2, seed=seed, absorbing=1)
    _assert_identical(mdp, 0.9, tol=1e-12, max_iter=7)
    _assert_identical(mdp, 0.9, tol=0.0, max_iter=50)


@pytest.mark.parametrize("rho", [0.3, 0.6, 0.9])
def test_profiler_decision_mdps(rho):
    """Every MDP a CAPMAN cell builds on the benchmark's trace kinds."""
    mdps = decision_mdps()
    assert {label.split("/")[0] for label, _, _ in mdps} == {
        "video", "pcmark", "eta_static", "skewed_burst"}
    for _, _, mdp in mdps:
        _assert_identical(mdp, rho)

