"""State abstraction from structural similarity (test harness).

The similarity fixed point induces a pseudo-metric on states; states
within a distance threshold are behaviourally interchangeable up to
``threshold/(1-rho)`` in value (Eq. 10).  Clustering on that metric,
solving the small abstract MDP and lifting its policy is how CAPMAN
avoids the state-explosion the paper warns about ("hundreds of apps,
tens of devices, and two batteries").  The running system borrows
decisions through :meth:`~repro.core.similarity.SimilarityResult.most_similar_state`
instead; only the tests cluster, so this lives beside them.  Import it
from a test (``tests/`` is on ``sys.path`` under pytest).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.mdp import MDP, Action, State
from repro.core.similarity import SimilarityResult
from repro.core.solver import Solution

__all__ = ["Clustering", "cluster_states", "abstract_mdp", "lift_policy"]


@dataclass(frozen=True)
class Clustering:
    """A partition of the MDP's states."""

    #: Representative state per cluster, in creation order.
    representatives: Tuple[State, ...]
    #: Map from every state to its representative.
    assignment: Dict[State, State]

    @property
    def n_clusters(self) -> int:
        """Number of clusters."""
        return len(self.representatives)

    def members(self, representative: State) -> List[State]:
        """All states assigned to a representative."""
        return [s for s, r in self.assignment.items() if r == representative]


def cluster_states(similarity: SimilarityResult, threshold: float) -> Clustering:
    """Greedy leader clustering under the structural distance.

    States are scanned in graph order; each joins the first cluster
    whose representative is within ``threshold`` distance, else founds
    a new cluster.  With threshold 0 every state is its own cluster.
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    reps: List[State] = []
    assignment: Dict[State, State] = {}
    graph = similarity.graph
    for s in graph.state_nodes:
        home = None
        for r in reps:
            if graph.is_absorbing(s) != graph.is_absorbing(r):
                continue
            if similarity.delta_s(s, r) <= threshold:
                home = r
                break
        if home is None:
            reps.append(s)
            home = s
        assignment[s] = home
    return Clustering(tuple(reps), assignment)


def abstract_mdp(mdp: MDP, clustering: Clustering) -> MDP:
    """Merge clustered states into an abstract MDP.

    Transitions of a representative average the member states'
    distributions per action (where defined) with successors mapped to
    their representatives; rewards average likewise.
    """
    reps = list(clustering.representatives)
    rep_of = clustering.assignment
    transitions: Dict[Tuple[State, Action], Dict[State, float]] = {}
    rewards: Dict[Tuple[State, Action, State], float] = {}

    for rep in reps:
        members = clustering.members(rep)
        # Collect the actions any member supports.
        actions = sorted(
            {a for m in members for a in mdp.available_actions(m)},
            key=repr,
        )
        for a in actions:
            acc: Dict[State, float] = {}
            racc: Dict[State, float] = {}
            n = 0
            for m in members:
                if (m, a) not in mdp.transitions:
                    continue
                n += 1
                for sp, p in mdp.transitions[(m, a)].items():
                    tgt = rep_of[sp]
                    acc[tgt] = acc.get(tgt, 0.0) + p
                    racc[tgt] = racc.get(tgt, 0.0) + p * mdp.reward(m, a, sp)
            if n == 0:
                continue
            total = sum(acc.values())
            dist = {sp: p / total for sp, p in acc.items()}
            transitions[(rep, a)] = dist
            for sp in dist:
                mass = acc[sp]
                rewards[(rep, a, sp)] = racc[sp] / mass if mass > 0 else 0.0

    actions_used = sorted({a for (_, a) in transitions}, key=repr)
    return MDP(reps, actions_used or list(mdp.actions), transitions, rewards)


def lift_policy(
    abstract_solution: Solution, clustering: Clustering
) -> Dict[State, Action]:
    """Extend the abstract policy to every original state."""
    lifted: Dict[State, Action] = {}
    for s, rep in clustering.assignment.items():
        a = abstract_solution.policy.get(rep)
        if a is not None:
            lifted[s] = a
    return lifted
