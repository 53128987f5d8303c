"""Reference solver for Algorithm 1: the oracle the fast solver is checked against.

A direct transcription of the structural-similarity recursion: dense
Python double loops, one SSP transport solve per action pair per
iteration, and the Hausdorff distance between action neighbourhoods
per state pair.  It is slow by design and exists only so the golden,
contract and scaling tests can compare
:meth:`repro.core.similarity.StructuralSimilarity.solve` with it.
Import it from a test (``tests/`` is on ``sys.path`` under pytest) or
put ``tests/`` on ``sys.path`` first, as the scaling benchmark does.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence, TypeVar

import numpy as np

from repro.core.graph import ActionNode, MDPGraph
from repro.core.similarity import (SimilarityResult, SolverStats, State,
                                   StructuralSimilarity)

from emd_oracle import emd_dicts

__all__ = ["solve_reference", "directed_hausdorff", "hausdorff"]

T = TypeVar("T")


def directed_hausdorff(
    a: Sequence[T], b: Sequence[T], distance: Callable[[T, T], float]
) -> float:
    """``sup_{x in a} inf_{y in b} d(x, y)``.

    Empty ``a`` contributes 0 (nothing to cover); empty ``b`` with a
    non-empty ``a`` is infinitely far, reported as 1.0 since all our
    metrics are normalised to [0, 1].
    """
    if not a:
        return 0.0
    if not b:
        return 1.0
    worst = 0.0
    for x in a:
        best = min(distance(x, y) for y in b)
        if best > worst:
            worst = best
    return worst


def hausdorff(
    a: Sequence[T], b: Sequence[T], distance: Callable[[T, T], float]
) -> float:
    """Symmetric Hausdorff distance ``max(h(a,b), h(b,a))``.

    Algorithm 1 compares two state nodes by this distance between their
    action-node neighbourhoods, measured with the current action
    distance ``delta_A``.
    """
    return max(
        directed_hausdorff(a, b, distance),
        directed_hausdorff(b, a, distance),
    )


def solve_reference(graph: MDPGraph, c_s: float = 0.95, c_a: float = 0.95,
                    d_absorbing: float = 1.0, tol: float = 1e-4,
                    max_iter: int = 100) -> SimilarityResult:
    """Run the Algorithm 1 recursion to its fixed point, line by line.

    Takes the same parameters (and defaults) as
    :class:`~repro.core.similarity.StructuralSimilarity` and returns
    the same :class:`~repro.core.similarity.SimilarityResult`, with
    ``stats.mode == "reference"``.
    """
    solver = StructuralSimilarity(graph, c_s=c_s, c_a=c_a,
                                  d_absorbing=d_absorbing, tol=tol,
                                  max_iter=max_iter)
    g = graph
    nv = g.n_state_nodes
    na = g.n_action_nodes
    started = time.perf_counter()
    stats = SolverStats(mode="reference")

    # Line 1: S <- I, A <- I, with the Eq. (3) base cases applied.
    absorbing = np.array([g.is_absorbing(s) for s in g.state_nodes], dtype=bool)
    state_sim, fixed = solver._base_cases(nv, absorbing)
    action_sim = np.eye(na)

    # Pre-compute per-action-node data.
    dists = [g.successor_dist(n) for n in g.action_nodes]
    mus = np.array([g.mean_reward(n) for n in g.action_nodes])
    neighbours = {s: g.out_actions(s) for s in g.state_nodes}

    residual = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        # Lines 3-5: refresh action similarities from state distances.
        phase_started = time.perf_counter()

        def delta_s_lookup(u: State, v: State) -> float:
            return 1.0 - state_sim[g.state_index(u), g.state_index(v)]

        new_action = np.eye(na)
        for i in range(na):
            for j in range(i + 1, na):
                d_emd = emd_dicts(dists[i], dists[j], delta_s_lookup)
                d_rwd = abs(mus[i] - mus[j])
                sim = 1.0 - (1.0 - c_a) * d_rwd - c_a * d_emd
                sim = min(1.0, max(0.0, sim))
                new_action[i, j] = sim
                new_action[j, i] = sim
        stats.action_refresh_s += time.perf_counter() - phase_started

        # Lines 6-7: refresh state similarities from action distances.
        phase_started = time.perf_counter()

        def delta_a_lookup(a: ActionNode, b: ActionNode) -> float:
            return 1.0 - new_action[g.action_index(a), g.action_index(b)]

        new_state = state_sim.copy()
        for i, u in enumerate(g.state_nodes):
            for j in range(i + 1, nv):
                if fixed[i, j]:
                    continue
                v = g.state_nodes[j]
                d_h = hausdorff(neighbours[u], neighbours[v], delta_a_lookup)
                sim = c_s * (1.0 - d_h)
                sim = min(1.0, max(0.0, sim))
                new_state[i, j] = sim
                new_state[j, i] = sim
        stats.state_refresh_s += time.perf_counter() - phase_started

        residual = max(
            float(np.max(np.abs(new_state - state_sim))) if nv else 0.0,
            float(np.max(np.abs(new_action - action_sim))) if na else 0.0,
        )
        stats.residuals.append(residual)
        state_sim = new_state
        action_sim = new_action
        if residual < tol:
            break

    elapsed = time.perf_counter() - started
    stats.iterations = iterations
    stats.total_s = elapsed
    return SimilarityResult(
        graph=g,
        state_sim=state_sim,
        action_sim=action_sim,
        iterations=iterations,
        residual=float(residual),
        elapsed_s=elapsed,
        stats=stats,
    )
