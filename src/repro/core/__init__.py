"""Core contribution: MDP, bipartite graph, structural similarity
(Algorithm 1 over the vectorised EMD engine), value iteration,
competitiveness bounds, and the online scheduler."""

from .bounds import (
    BoundCheck,
    competitiveness_factor,
    value_difference_bound,
    verify_action_bound,
    verify_value_bound,
)
from .emd import EMDStats, PairwiseEMD
from .graph import ActionNode, MDPGraph
from .mdp import MDP, random_mdp
from .minflow import transport_dense
from .online import DecisionRecord, OnlineScheduler, SchedulerStats
from .similarity import SimilarityResult, SolverStats, StructuralSimilarity
from .solver import Solution, optimal_policy, value_iteration

__all__ = [
    "BoundCheck",
    "competitiveness_factor",
    "value_difference_bound",
    "verify_action_bound",
    "verify_value_bound",
    "EMDStats",
    "PairwiseEMD",
    "ActionNode",
    "MDPGraph",
    "MDP",
    "random_mdp",
    "transport_dense",
    "DecisionRecord",
    "OnlineScheduler",
    "SchedulerStats",
    "SimilarityResult",
    "SolverStats",
    "StructuralSimilarity",
    "Solution",
    "value_iteration",
    "optimal_policy",
]
