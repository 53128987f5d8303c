"""Exact MDP solver: value iteration.

This implements the Bellman machinery of paper Eqs. (6)-(9): state
values ``V``, action values ``Q`` (the paper's ``P_a``) and the optimal
policy.  Policy evaluation and policy iteration, which only the tests
use as cross-checks, live in ``tests/solver_oracle.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .mdp import MDP, Action, State

__all__ = ["Solution", "value_iteration"]


@dataclass(frozen=True)
class Solution:
    """An MDP solution: optimal values, action values and policy."""

    values: Dict[State, float]
    q_values: Dict[Tuple[State, Action], float]
    policy: Dict[State, Action]
    iterations: int
    residual: float

    def value(self, state: State) -> float:
        """V*(s); absorbing states have value 0."""
        return self.values.get(state, 0.0)

    def action(self, state: State) -> Optional[Action]:
        """The optimal action, or None for absorbing states."""
        return self.policy.get(state)


def _compile(mdp: MDP):
    """Flatten ``mdp`` into index lists for the Bellman sweeps.

    Returns ``(plan, edges)``.  ``plan`` holds one ``(i, outcomes)``
    per non-absorbing state, in ``mdp.states`` order, where
    ``outcomes`` lists, per action in :meth:`MDP.available_actions`
    order, the ``(p, reward, j)`` triples of its successors in
    transition-dict order (``j`` indexes ``mdp.states``).  ``edges``
    holds ``((s, a), outcomes)`` in ``mdp.transitions`` order for the
    final Q table.  Each outcome list is built once and shared.
    """
    index = {s: i for i, s in enumerate(mdp.states)}
    rewards = mdp.rewards
    edges = [
        ((s, a), [(p, rewards.get((s, a, sp), 0.0), index[sp])
                  for sp, p in dist.items()])
        for (s, a), dist in mdp.transitions.items()
    ]
    by_key = dict(edges)
    plan = []
    for i, s in enumerate(mdp.states):
        acts = mdp.available_actions(s)
        if acts:
            plan.append((i, [by_key[(s, a)] for a in acts]))
    return plan, edges


def value_iteration(
    mdp: MDP,
    rho: float = 0.9,
    tol: float = 1e-8,
    max_iter: int = 100_000,
) -> Solution:
    """Solve the Bellman optimality equations by fixed-point iteration.

    ``rho`` is the discount factor of Eq. (6); convergence is geometric
    at rate ``rho`` (the contraction the paper's bound leans on).

    The sweeps run over the index lists of :func:`_compile` rather than
    the MDP's dictionaries.  Every Q term is the same expression over
    the same operands in the same order, so values, Q, policy,
    ``iterations`` and ``residual`` are bit-identical to the
    dictionary-walking form (kept as ``tests/solver_oracle.py``).
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    plan, edges = _compile(mdp)
    v = [0.0] * len(mdp.states)
    residual = math.inf
    it = 0
    for it in range(1, max_iter + 1):
        residual = 0.0
        new_v = list(v)
        for i, actions in plan:
            best = -math.inf
            for outcomes in actions:
                q = sum(p * (r + rho * v[j]) for p, r, j in outcomes)
                if q > best:
                    best = q
            new_v[i] = best
            residual = max(residual, abs(best - v[i]))
        v = new_v
        if residual < tol:
            break
    values: Dict[State, float] = dict(zip(mdp.states, v))
    q_values: Dict[Tuple[State, Action], float] = {
        sa: sum(p * (r + rho * v[j]) for p, r, j in outcomes)
        for sa, outcomes in edges
    }
    policy: Dict[State, Action] = {}
    for s in mdp.states:
        acts = mdp.available_actions(s)
        if acts:
            policy[s] = max(acts, key=lambda a: q_values[(s, a)])
    return Solution(values, q_values, policy, it, residual)
