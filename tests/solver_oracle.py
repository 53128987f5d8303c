"""Reference value iteration: the oracle the compiled solver is checked against.

The dictionary-walking form of paper Eqs. (6)-(9): each sweep looks up
``available_actions``, the transition dicts and ``reward`` per state,
action and successor.  :func:`repro.core.solver.value_iteration` runs
the same arithmetic over index lists compiled once per MDP, and must
return a :class:`~repro.core.solver.Solution` equal to this one with
``==``, not approximately.  Import it from a test (``tests/`` is on
``sys.path`` under pytest).
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

from repro.core.mdp import MDP, Action, State
from repro.core.solver import Solution

__all__ = ["value_iteration_reference"]


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
    q: Dict[Tuple[State, Action], float] = {}
    for (s, a), dist in mdp.transitions.items():
        q[(s, a)] = sum(
            p * (mdp.reward(s, a, sp) + rho * values.get(sp, 0.0))
            for sp, p in dist.items()
        )
    policy: Dict[State, Action] = {}
    for s in mdp.states:
        acts = mdp.available_actions(s)
        if acts:
            policy[s] = max(acts, key=lambda a: q[(s, a)])
    return Solution(values, q, policy, it, residual)
