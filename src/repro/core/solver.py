"""Exact MDP solvers: value iteration, policy iteration, evaluation.

These implement the Bellman machinery of paper Eqs. (6)-(9): state
values ``V``, action values ``Q`` (the paper's ``P_a``), the optimal
policy, and policy evaluation for the competitiveness experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, Mapping, Optional, Tuple

from .mdp import MDP, Action, State

__all__ = ["Solution", "value_iteration", "policy_evaluation", "policy_iteration"]


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
