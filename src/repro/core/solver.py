"""Exact MDP solvers: value iteration and the certified policy.

This implements the Bellman machinery of paper Eqs. (6)-(9): state
values ``V``, action values ``Q`` (the paper's ``P_a``) and the optimal
policy.  :func:`value_iteration` is the reference the rest of the
repository agrees with.  :func:`optimal_policy` returns the policy that
:func:`value_iteration` would return, for callers that need only the
policy: on small MDPs it solves for ``Q*`` exactly by policy iteration
and returns that policy only when a margin proves value iteration's
argmax is the same (see its docstring and DESIGN.md section 12);
otherwise it runs value iteration.  Policy evaluation and the
dictionary-walking policy iteration, which only the tests use as
cross-checks, live in ``tests/solver_oracle.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .mdp import MDP, Action, State

__all__ = ["Solution", "value_iteration", "optimal_policy",
           "CERTIFY_MAX_STATES"]

#: Largest MDP, in non-absorbing states, :func:`optimal_policy` solves
#: exactly; larger ones go to value iteration.
CERTIFY_MAX_STATES = 8

#: Relative floating-point allowance of the certificate: 4096 ulps of
#: the value scale per unit of ``1 / (1 - gamma)``, far above the
#: rounding of value iteration's sweeps and of an 8-state LU solve.
_FP_SLACK = 2.0 ** -40

#: Policy-iteration rounds before the certificate gives up.
_PI_MAX_ROUNDS = 64


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


def optimal_policy(
    mdp: MDP,
    rho: float = 0.9,
    tol: float = 1e-8,
    max_iter: int = 100_000,
) -> Tuple[Dict[State, Action], bool]:
    """``value_iteration(mdp, rho, tol, max_iter).policy``, certified.

    Returns ``(policy, certified)``.  The policy always equals value
    iteration's, key order included.  ``certified`` is True when it
    came from the certificate below, and False when the certificate
    refused and value iteration computed it.

    The certificate solves MDPs of at most :data:`CERTIFY_MAX_STATES`
    non-absorbing states by policy iteration with exact linear solves,
    giving ``Q*``.  Let ``gamma = rho * max_sa sum_s' |p|`` (``rho``
    for stochastic rows) and ``eps`` the floating-point slack.
    Value iteration stops on the first sweep whose residual is below
    ``tol``, and then ``|V - V*| <= gamma * tol / (1 - gamma)``, so
    its final Q sits within ``gamma**2 * tol / (1 - gamma)`` of
    ``Q*``.  The policy is returned only if both hold:

    * every state's best ``Q*`` beats its second best by more than
      ``2 * (gamma**2 * tol / (1 - gamma) + eps)``, so value
      iteration's argmax is the same action, with no tie;
    * value iteration provably stops on ``tol`` within ``max_iter``
      sweeps: its residual after sweep ``k`` is at most
      ``gamma**(k - 1) * max|r| + eps``.
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    plan, _ = _compile(mdp)
    policy = _certified_policy(mdp, plan, rho, tol, max_iter)
    if policy is not None:
        return policy, True
    return value_iteration(mdp, rho, tol, max_iter).policy, False


def _certified_policy(mdp: MDP, plan, rho: float, tol: float,
                      max_iter: int) -> Optional[Dict[State, Action]]:
    """The certified optimal policy, or None when it cannot be proven."""
    m = len(plan)
    if m > CERTIFY_MAX_STATES or not tol > 0.0:
        return None
    if m == 0:
        return {}
    live = {i: li for li, (i, _) in enumerate(plan)}
    width = max(len(actions) for _, actions in plan)
    # Expected one-step reward and successor mass over the live states
    # (an absorbing successor has value 0); -inf marks a missing action.
    reward = np.full((m, width), -math.inf)
    succ = np.zeros((m, width, m))
    mass = 0.0
    for li, (_, actions) in enumerate(plan):
        for a, outcomes in enumerate(actions):
            reward[li, a] = sum(p * r for p, r, _ in outcomes)
            mass = max(mass, sum(abs(p) for p, _, _ in outcomes))
            for p, _, j in outcomes:
                lj = live.get(j)
                if lj is not None:
                    succ[li, a, lj] += p
    gamma = rho * max(1.0, mass)
    if not gamma < 1.0:
        return None
    r_max = float(np.abs(reward[np.isfinite(reward)]).max())
    slack = _FP_SLACK * (1.0 + r_max / (1.0 - gamma)) / (1.0 - gamma)

    # Value iteration must stop on tol: the smallest k with
    # gamma**(k - 1) * r_max + slack < tol, plus one sweep of margin.
    budget = tol - slack
    if not budget > 0.0:
        return None
    if r_max >= budget:
        if gamma == 0.0:
            sweeps = 2
        else:
            sweeps = math.floor(math.log(budget / r_max)
                                / math.log(gamma)) + 3
        if sweeps > max_iter:
            return None

    # Howard policy iteration, switching only on a clear gain.
    rows = np.arange(m)
    policy = np.argmax(reward, axis=1)
    eye = np.eye(m)
    for _ in range(_PI_MAX_ROUNDS):
        try:
            values = np.linalg.solve(eye - rho * succ[rows, policy],
                                     reward[rows, policy])
        except np.linalg.LinAlgError:
            return None
        q = reward + rho * (succ @ values)
        best = np.argmax(q, axis=1)
        gain = q[rows, best] > q[rows, policy] + slack
        if not gain.any():
            break
        policy = np.where(gain, best, policy)
    else:
        return None

    if width > 1:
        ranked = np.sort(q, axis=1)
        gap = ranked[:, -1] - ranked[:, -2]
        if not (gap > 2.0 * (gamma * gamma * tol / (1.0 - gamma)
                             + slack)).all():
            return None
    states = mdp.states
    return {states[i]: mdp.available_actions(states[i])[a]
            for (i, _), a in zip(plan, best.tolist())}
