"""Structural similarity recursion over the MDP graph (Algorithm 1).

Following the paper (after Wang et al., IJCAI'19, and SimRank): state
similarity ``sigma_S`` and action similarity ``sigma_A`` are defined by
mutual recursion --

* two action nodes are similar when their rewards are close and their
  successor-state distributions are close under the Earth Mover's
  Distance measured with the current state distance (Eq. 4, second
  line):  ``sigma_A(a,b) = 1 - (1-C_A) * delta_rwd(a,b)
  - C_A * delta_EMD(p_a, p_b; delta_S)``;

* two state nodes are similar when their action neighbourhoods are
  close under the Hausdorff distance measured with the current action
  distance (Eq. 4, first line):
  ``sigma_S(u,v) = C_S * (1 - Hausdorff(N_u, N_v; delta_A))``.

Base cases (Eq. 3): a state is self-similar; an absorbing state is
maximally distant from any non-absorbing state; two absorbing states
have the configured distance ``d_uv``.

The recursion is iterated from the identity matrices until the
matrices converge (the paper proves termination and uniqueness for
discounts in (0,1)); the fixed point feeds the competitiveness bound of
Eq. (10) -- see :mod:`repro.core.bounds`.

The solver evaluates the map through
:class:`~repro.core.emd.PairwiseEMD` -- precompiled support index
arrays, a precomputed reward-distance matrix, vectorised Hausdorff
refreshes grouped by neighbourhood shape.  The direct transcription of
Algorithm 1 (dense Python double loops, one SSP transport solve per
action pair per iteration) lives in the test suite as the semantic
oracle; the golden-regression tests pin the two to 1e-8.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from .. import obs
from .emd import EMDStats, PairwiseEMD
from .graph import ActionNode, MDPGraph

__all__ = ["SimilarityResult", "SolverStats", "StructuralSimilarity"]

State = Hashable


@dataclass
class SolverStats:
    """Observability record of one :meth:`StructuralSimilarity.solve`."""

    #: Which solver ran: "fast", or "reference" for the test-suite oracle.
    mode: str
    iterations: int = 0
    #: Wall-clock total and per-phase split (seconds).
    total_s: float = 0.0
    action_refresh_s: float = 0.0
    state_refresh_s: float = 0.0
    #: Max-norm matrix change after each iteration, in order.
    residuals: List[float] = field(default_factory=list)
    #: EMD engine counters (fast mode only).
    emd: Optional[EMDStats] = None


@dataclass
class SimilarityResult:
    """Converged similarity matrices plus convergence metadata."""

    graph: MDPGraph
    #: |V| x |V| state similarity matrix ``sigma_S*``.
    state_sim: np.ndarray
    #: |Lambda| x |Lambda| action similarity matrix ``sigma_A*``.
    action_sim: np.ndarray
    iterations: int
    residual: float
    elapsed_s: float
    #: Per-phase timing and cache counters of the solve that produced this.
    stats: Optional[SolverStats] = None

    # ------------------------------------------------------------------
    def sigma_s(self, u: State, v: State) -> float:
        """State similarity ``sigma_S*(u, v)`` in [0, 1]."""
        i = self.graph.state_index(u)
        j = self.graph.state_index(v)
        return float(self.state_sim[i, j])

    def delta_s(self, u: State, v: State) -> float:
        """State distance ``delta_S* = 1 - sigma_S*``."""
        return 1.0 - self.sigma_s(u, v)

    def sigma_a(self, a: ActionNode, b: ActionNode) -> float:
        """Action similarity ``sigma_A*(a, b)`` in [0, 1]."""
        i = self.graph.action_index(a)
        j = self.graph.action_index(b)
        return float(self.action_sim[i, j])

    def delta_a(self, a: ActionNode, b: ActionNode) -> float:
        """Action distance ``delta_A* = 1 - sigma_A*``."""
        return 1.0 - self.sigma_a(a, b)

    def most_similar_state(self, u: State, exclude_self: bool = True) -> Tuple[State, float]:
        """The known state most similar to ``u`` and its similarity.

        Ties break toward the lowest state index (``np.argmax`` keeps
        the first maximiser), so the choice is deterministic in the
        graph's state order for both solvers.
        """
        i = self.graph.state_index(u)
        row = self.state_sim[i].copy()
        if exclude_self:
            row[i] = -1.0
        j = int(np.argmax(row))
        return self.graph.state_nodes[j], float(row[j])


class StructuralSimilarity:
    """Iterative solver for the Algorithm 1 recursion.

    Parameters
    ----------
    graph:
        The bipartite MDP graph.
    c_s, c_a:
        Discount weights of Eq. (4).  For the competitiveness bound of
        Eq. (10), instantiate with ``c_s = 1.0`` and ``c_a = rho``.
    d_absorbing:
        Eq. (3)'s ``d_uv`` between two absorbing states; 0 identifies
        all scheduling targets, 1 keeps them fully distinct.
    tol, max_iter:
        Convergence controls over the max-norm matrix change.
    cache_tol:
        Sup-norm slack of the solver's EMD reuse cache: a pair's
        transport solve is skipped while its ground matrix moved less
        than this since the last solve, perturbing the fixed point by
        at most ``cache_tol / (1 - c)``.  The default keeps that far
        below the 1e-8 agreement the golden tests pin.
    """

    def __init__(
        self,
        graph: MDPGraph,
        c_s: float = 0.95,
        c_a: float = 0.95,
        d_absorbing: float = 1.0,
        tol: float = 1e-4,
        max_iter: int = 100,
        cache_tol: float = 1e-10,
    ) -> None:
        if not 0.0 < c_s <= 1.0:
            raise ValueError("c_s must lie in (0, 1]")
        if not 0.0 < c_a <= 1.0:
            raise ValueError("c_a must lie in (0, 1]")
        if not 0.0 <= d_absorbing <= 1.0:
            raise ValueError("d_absorbing must lie in [0, 1]")
        if cache_tol < 0:
            raise ValueError("cache_tol must be non-negative")
        self.graph = graph
        self.c_s = c_s
        self.c_a = c_a
        self.d_absorbing = d_absorbing
        self.tol = tol
        self.max_iter = max_iter
        self.cache_tol = cache_tol

    # ------------------------------------------------------------------
    def solve(self) -> SimilarityResult:
        """Run the recursion to its fixed point."""
        ob = obs.session()
        if ob is None:
            return self._solve_fast()
        with ob.tracer.span("similarity.solve", mode="fast"):
            result = self._solve_fast()
        # Mirror the per-solve SolverStats into the registry so the
        # telemetry blob is the one place these counts surface.
        stats = result.stats
        reg = ob.registry
        reg.counter("similarity.solves").inc()
        if stats is not None:
            reg.counter("similarity.iterations").inc(stats.iterations)
            reg.histogram("similarity.solve_s").observe(stats.total_s)
            if stats.emd is not None:
                emd = stats.emd
                reg.counter("similarity.emd.calls").inc(emd.calls)
                reg.counter("similarity.emd.solves").inc(emd.solves)
                reg.counter("similarity.emd.memo_hits").inc(emd.memo_hits)
                reg.counter("similarity.emd.reuse_hits").inc(emd.reuse_hits)
        return result

    # ------------------------------------------------------------------
    # Shared setup
    # ------------------------------------------------------------------
    def _base_cases(self, nv: int, absorbing: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Initial state matrix and the Eq. (3) fixed-entry mask."""
        state_sim = np.eye(nv)
        fixed = np.zeros((nv, nv), dtype=bool)
        np.fill_diagonal(fixed, True)
        cross = absorbing[:, None] != absorbing[None, :]
        state_sim[cross] = 0.0  # delta = 1
        fixed |= cross
        both = absorbing[:, None] & absorbing[None, :]
        both &= ~np.eye(nv, dtype=bool)
        state_sim[both] = 1.0 - self.d_absorbing
        fixed |= both
        return state_sim, fixed

    # ------------------------------------------------------------------
    # Fast path: vectorised refreshes + memoised EMD engine
    # ------------------------------------------------------------------
    def _solve_fast(self) -> SimilarityResult:
        g = self.graph
        nv = g.n_state_nodes
        na = g.n_action_nodes
        started = time.perf_counter()
        stats = SolverStats(mode="fast")

        absorbing = np.array([g.is_absorbing(s) for s in g.state_nodes], dtype=bool)
        state_sim, fixed = self._base_cases(nv, absorbing)
        action_sim = np.eye(na)

        # Compile the action side: support index arrays + reward matrix.
        state_of = {s: g.state_index(s) for s in g.state_nodes}
        engine = PairwiseEMD(
            [g.successor_dist(n) for n in g.action_nodes],
            state_of,
            reuse_tol=self.cache_tol,
        )
        stats.emd = engine.stats
        mus = np.array([g.mean_reward(n) for n in g.action_nodes])
        d_rwd = np.abs(mus[:, None] - mus[None, :]) if na else np.zeros((0, 0))

        # Compile the state side: non-fixed pairs grouped by the shape
        # of their action neighbourhoods so each Hausdorff refresh is a
        # single gather + min/max reduction per group.
        act_idx = [
            np.array([g.action_index(a) for a in g.out_actions(s)], dtype=np.intp)
            for s in g.state_nodes
        ]
        shape_groups: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        for i in range(nv):
            for j in range(i + 1, nv):
                if fixed[i, j]:
                    continue
                shape_groups.setdefault(
                    (len(act_idx[i]), len(act_idx[j])), []
                ).append((i, j))
        state_groups = []
        for pairs in shape_groups.values():
            rows = np.array([p[0] for p in pairs], dtype=np.intp)
            cols = np.array([p[1] for p in pairs], dtype=np.intp)
            left = np.stack([act_idx[i] for i in rows])
            right = np.stack([act_idx[j] for j in cols])
            state_groups.append((rows, cols, left, right))

        residual = np.inf
        iterations = 0
        for iterations in range(1, self.max_iter + 1):
            # Lines 3-5, vectorised: one EMD refresh prices every action
            # pair against the current state-distance matrix.
            phase_started = time.perf_counter()
            delta_state = 1.0 - state_sim
            d_emd = engine.refresh(delta_state)
            new_action = np.clip(
                1.0 - (1.0 - self.c_a) * d_rwd - self.c_a * d_emd, 0.0, 1.0
            )
            np.fill_diagonal(new_action, 1.0)
            stats.action_refresh_s += time.perf_counter() - phase_started

            # Lines 6-7, vectorised per neighbourhood-shape group.
            phase_started = time.perf_counter()
            delta_action = 1.0 - new_action
            new_state = state_sim.copy()
            for rows, cols, left, right in state_groups:
                sub = delta_action[left[:, :, None], right[:, None, :]]
                d_h = np.maximum(sub.min(axis=2).max(axis=1),
                                 sub.min(axis=1).max(axis=1))
                values = np.clip(self.c_s * (1.0 - d_h), 0.0, 1.0)
                new_state[rows, cols] = values
                new_state[cols, rows] = values
            stats.state_refresh_s += time.perf_counter() - phase_started

            residual = max(
                float(np.max(np.abs(new_state - state_sim))) if nv else 0.0,
                float(np.max(np.abs(new_action - action_sim))) if na else 0.0,
            )
            stats.residuals.append(residual)
            state_sim = new_state
            action_sim = new_action
            if residual < self.tol:
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
