"""Policy objects over MDPs and Monte-Carlo rollouts (test harness).

The rollout estimate of Eq. (6) is an independent check on value
iteration's optimum.  Import it from a test (``tests/`` is on
``sys.path`` under pytest).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.mdp import MDP, Action, State

__all__ = ["Policy", "TabularPolicy", "RandomPolicy", "rollout_return",
           "sample_successor"]


class Policy:
    """Maps a state to an action (None on absorbing states)."""

    def action(self, state: State) -> Optional[Action]:
        """The action to take in ``state``."""
        raise NotImplementedError


@dataclass
class TabularPolicy(Policy):
    """A fixed lookup-table policy."""

    table: Dict[State, Action]

    def action(self, state: State) -> Optional[Action]:
        return self.table.get(state)


@dataclass
class RandomPolicy(Policy):
    """Uniform random over available actions; the exploration default."""

    mdp: MDP
    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)

    def action(self, state: State) -> Optional[Action]:
        acts = self.mdp.available_actions(state)
        if not acts:
            return None
        return acts[int(self._rng.integers(len(acts)))]


def sample_successor(mdp: MDP, state: State, action: Action,
                     rng: np.random.Generator) -> State:
    """Draw one successor state."""
    dist = mdp.transitions[(state, action)]
    keys = list(dist)
    probs = np.array([dist[k] for k in keys], dtype=float)
    probs = probs / probs.sum()
    return keys[int(rng.choice(len(keys), p=probs))]


def rollout_return(
    mdp: MDP,
    policy: Policy,
    start: State,
    rho: float,
    horizon: int = 200,
    n_rollouts: int = 32,
    seed: int = 0,
) -> float:
    """Monte-Carlo estimate of the discounted return (Eq. 6) under a policy."""
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    total = 0.0
    for _ in range(n_rollouts):
        s = start
        discount = 1.0
        acc = 0.0
        for _ in range(horizon):
            a = policy.action(s)
            if a is None:
                break
            sp = sample_successor(mdp, s, a, rng)
            acc += discount * mdp.reward(s, a, sp)
            discount *= rho
            s = sp
        total += acc
    return total / n_rollouts
