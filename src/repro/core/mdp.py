"""Markov decision process ``M = (S, A, T, R)`` (paper Section III-B).

States and actions are arbitrary hashable labels; transition and reward
functions are sparse dictionaries.  Rewards are normalised to [0, 1] as
the paper requires (the competitiveness bound of Eq. 10 relies on it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Mapping, Tuple

import numpy as np

__all__ = ["MDP", "random_mdp"]

State = Hashable
Action = Hashable


@dataclass
class MDP:
    """A finite MDP with sparse tables.

    Parameters
    ----------
    states:
        All state labels.
    actions:
        All action labels.
    transitions:
        ``{(s, a): {s': p}}``; each inner distribution must sum to 1.
    rewards:
        ``{(s, a, s'): r}`` with ``r`` in [0, 1].  Missing triples
        default to reward 0.
    """

    states: List[State]
    actions: List[Action]
    transitions: Dict[Tuple[State, Action], Dict[State, float]]
    rewards: Dict[Tuple[State, Action, State], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._state_set = set(self.states)
        self._action_set = set(self.actions)
        if len(self._state_set) != len(self.states):
            raise ValueError("duplicate states")
        if len(self._action_set) != len(self.actions):
            raise ValueError("duplicate actions")
        self.validate()
        self._actions_by_state: Dict[State, List[Action]] = {}
        for (s, a) in self.transitions:
            self._actions_by_state.setdefault(s, []).append(a)

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raises ValueError on violation."""
        for (s, a), dist in self.transitions.items():
            if s not in self._state_set:
                raise ValueError(f"unknown state {s!r} in transitions")
            if a not in self._action_set:
                raise ValueError(f"unknown action {a!r} in transitions")
            if not dist:
                raise ValueError(f"empty successor distribution for ({s!r}, {a!r})")
            total = sum(dist.values())
            if abs(total - 1.0) > 1e-6:
                raise ValueError(
                    f"transition probabilities for ({s!r}, {a!r}) sum to {total}"
                )
            for sp, p in dist.items():
                if sp not in self._state_set:
                    raise ValueError(f"unknown successor {sp!r}")
                if p < -1e-12:
                    raise ValueError("negative transition probability")
        for (s, a, sp), r in self.rewards.items():
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"reward {r} for ({s!r},{a!r},{sp!r}) outside [0,1]")

    # ------------------------------------------------------------------
    def available_actions(self, state: State) -> List[Action]:
        """Actions with a defined transition from ``state``."""
        return list(self._actions_by_state.get(state, []))

    def is_absorbing(self, state: State) -> bool:
        """True when no action leaves the state."""
        return not self._actions_by_state.get(state)

    def successors(self, state: State, action: Action) -> Dict[State, float]:
        """The successor distribution of (state, action)."""
        return dict(self.transitions[(state, action)])

    def reward(self, state: State, action: Action, successor: State) -> float:
        """R(s, a, s'), defaulting to 0 when unspecified."""
        return self.rewards.get((state, action, successor), 0.0)

    def expected_reward(self, state: State, action: Action) -> float:
        """Mean one-step reward of (state, action)."""
        dist = self.transitions[(state, action)]
        return sum(p * self.reward(state, action, sp) for sp, p in dist.items())

    @property
    def n_states(self) -> int:
        """|S|."""
        return len(self.states)

    @property
    def n_actions(self) -> int:
        """|A|."""
        return len(self.actions)


def random_mdp(
    n_states: int,
    n_actions: int,
    branching: int = 3,
    seed: int = 0,
    absorbing: int = 0,
) -> MDP:
    """A random MDP for tests and micro-benchmarks.

    Every non-absorbing state gets every action with a ``branching``-way
    successor distribution; the last ``absorbing`` states get none.
    """
    if n_states < 1 or n_actions < 1:
        raise ValueError("need at least one state and one action")
    if absorbing >= n_states:
        raise ValueError("at least one state must be non-absorbing")
    rng = np.random.default_rng(seed)
    states = [f"s{i}" for i in range(n_states)]
    actions = [f"a{j}" for j in range(n_actions)]
    transitions: Dict[Tuple[State, Action], Dict[State, float]] = {}
    rewards: Dict[Tuple[State, Action, State], float] = {}
    live = states[: n_states - absorbing]
    for s in live:
        for a in actions:
            succ = rng.choice(n_states, size=min(branching, n_states), replace=False)
            raw = rng.random(len(succ)) + 0.05
            raw /= raw.sum()
            dist = {states[int(i)]: float(p) for i, p in zip(succ, raw)}
            transitions[(s, a)] = dist
            for sp in dist:
                rewards[(s, a, sp)] = float(rng.random())
    return MDP(states, actions, transitions, rewards)
