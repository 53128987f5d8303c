"""Reference value iteration: the oracle the compiled solver is checked against.

The dictionary-walking form of paper Eqs. (6)-(9): each sweep looks up
``available_actions``, the transition dicts and ``reward`` per state,
action and successor.  :func:`repro.core.solver.value_iteration` runs
the same arithmetic over index lists compiled once per MDP, and must
return a :class:`~repro.core.solver.Solution` equal to this one with
``==``, not approximately.  Policy evaluation and Howard policy
iteration are the independent cross-checks the solver and property
tests hold value iteration's optimum to.  Import it from a test
(``tests/`` is on ``sys.path`` under pytest).
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Tuple

from repro.core.mdp import MDP, Action, State
from repro.core.solver import Solution

__all__ = ["value_iteration_reference", "policy_evaluation", "policy_iteration"]


def _q_from_values(
    mdp: MDP, values: Mapping[State, float], rho: float
) -> Dict[Tuple[State, Action], float]:
    q: Dict[Tuple[State, Action], float] = {}
    for (s, a), dist in mdp.transitions.items():
        q[(s, a)] = sum(
            p * (mdp.reward(s, a, sp) + rho * values.get(sp, 0.0))
            for sp, p in dist.items()
        )
    return q


def value_iteration_reference(
    mdp: MDP,
    rho: float = 0.9,
    tol: float = 1e-8,
    max_iter: int = 100_000,
) -> Solution:
    """Solve the Bellman optimality equations by fixed-point iteration.

    Same parameters, defaults and result as
    :func:`repro.core.solver.value_iteration`.
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    values: Dict[State, float] = {s: 0.0 for s in mdp.states}
    residual = math.inf
    it = 0
    for it in range(1, max_iter + 1):
        residual = 0.0
        new_values = dict(values)
        for s in mdp.states:
            acts = mdp.available_actions(s)
            if not acts:
                continue
            best = -math.inf
            for a in acts:
                q = sum(
                    p * (mdp.reward(s, a, sp) + rho * values[sp])
                    for sp, p in mdp.transitions[(s, a)].items()
                )
                if q > best:
                    best = q
            new_values[s] = best
            residual = max(residual, abs(best - values[s]))
        values = new_values
        if residual < tol:
            break
    q = _q_from_values(mdp, values, rho)
    policy: Dict[State, Action] = {}
    for s in mdp.states:
        acts = mdp.available_actions(s)
        if acts:
            policy[s] = max(acts, key=lambda a: q[(s, a)])
    return Solution(values, q, policy, it, residual)


def policy_evaluation(
    mdp: MDP,
    policy: Mapping[State, Action],
    rho: float = 0.9,
    tol: float = 1e-8,
    max_iter: int = 100_000,
) -> Dict[State, float]:
    """Value of a fixed policy (Eq. 6 under pi instead of pi*)."""
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    values: Dict[State, float] = {s: 0.0 for s in mdp.states}
    for _ in range(max_iter):
        residual = 0.0
        for s in mdp.states:
            a = policy.get(s)
            if a is None:
                continue
            v = sum(
                p * (mdp.reward(s, a, sp) + rho * values[sp])
                for sp, p in mdp.transitions[(s, a)].items()
            )
            residual = max(residual, abs(v - values[s]))
            values[s] = v
        if residual < tol:
            break
    return values


def policy_iteration(
    mdp: MDP,
    rho: float = 0.9,
    tol: float = 1e-8,
    max_iter: int = 1_000,
) -> Solution:
    """Howard policy iteration; converges in few sweeps on our MDPs."""
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    policy: Dict[State, Action] = {}
    for s in mdp.states:
        acts = mdp.available_actions(s)
        if acts:
            policy[s] = acts[0]
    values: Dict[State, float] = {s: 0.0 for s in mdp.states}
    it = 0
    for it in range(1, max_iter + 1):
        values = policy_evaluation(mdp, policy, rho, tol)
        q = _q_from_values(mdp, values, rho)
        stable = True
        for s in mdp.states:
            acts = mdp.available_actions(s)
            if not acts:
                continue
            best = max(acts, key=lambda a: q[(s, a)])
            if q[(s, best)] > q[(s, policy[s])] + tol:
                policy[s] = best
                stable = False
        if stable:
            break
    q = _q_from_values(mdp, values, rho)
    return Solution(values, q, dict(policy), it, 0.0)
