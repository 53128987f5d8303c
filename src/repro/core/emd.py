"""Earth Mover's Distance between finite distributions.

Used by Algorithm 1 to compare the next-state distributions of two
action nodes under the current state-distance metric.

:class:`PairwiseEMD` is the vectorised/memoised engine behind the
Algorithm 1 solver: it compiles a fixed family of sparse distributions
once (dense support index arrays instead of per-pair dict lookups) and
then refreshes *all* pairwise EMDs against an updated ground metric
with a few NumPy operations per support-shape group.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple, TypeVar

import numpy as np

from .minflow import transport_dense

__all__ = ["EMDStats", "PairwiseEMD"]

T = TypeVar("T", bound=Hashable)

_EPS = 1e-12

#: Largest spanning-tree count handled by the vertex-enumeration batch
#: path.  K_{m,n} has m^(n-1) * n^(m-1) spanning trees: 81 for 3x3, 432
#: for 3x4, 192 for 2x6 -- all well under this cap; 4x4 (4096) and up
#: fall back to the per-pair SSP behind the memo/reuse caches.
_BATCH_MAX_TREES = 512

#: Upper bound on a group's precomputed flow tensor (elements); larger
#: groups are demoted to the per-pair path to bound memory.
_BATCH_MAX_ELEMENTS = 20_000_000


def _n_trees(m: int, n: int) -> int:
    """Spanning trees of the complete bipartite graph K_{m,n}."""
    return m ** (n - 1) * n ** (m - 1)

#: Cached spanning-tree bases per transport shape: (edge indices, solve maps).
_BASES: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}


def _transport_bases(m: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """All spanning-tree bases of the m x n transportation problem.

    Returns ``(edges, solve)`` where ``edges[t]`` lists the flat
    ``i * n + j`` edge indices of tree ``t`` and ``solve[t]`` maps the
    marginal vector ``[p; q]`` to the tree's basic flows.  Every vertex
    of the transportation polytope is the basic solution of at least
    one spanning tree, so minimising the flow cost over all feasible
    bases is exactly the linear-programming optimum.
    """
    key = (m, n)
    cached = _BASES.get(key)
    if cached is not None:
        return cached
    n_nodes = m + n
    n_basis = n_nodes - 1
    edge_list = [(i, j) for i in range(m) for j in range(n)]
    edges_out: List[List[int]] = []
    solves: List[np.ndarray] = []
    for combo in itertools.combinations(range(len(edge_list)), n_basis):
        # Union-find acyclicity check: n_nodes-1 edges + no cycle = tree.
        parent = list(range(n_nodes))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        is_tree = True
        for e in combo:
            i, j = edge_list[e]
            ri, rj = find(i), find(m + j)
            if ri == rj:
                is_tree = False
                break
            parent[ri] = rj
        if not is_tree:
            continue
        # Incidence system: row sums give p, column sums give q.
        a = np.zeros((n_nodes, n_basis))
        for col, e in enumerate(combo):
            i, j = edge_list[e]
            a[i, col] = 1.0
            a[m + j, col] = 1.0
        solves.append(np.linalg.pinv(a))
        edges_out.append([edge_list[e][0] * n + edge_list[e][1] for e in combo])
    result = (np.array(edges_out, dtype=np.intp), np.stack(solves))
    _BASES[key] = result
    return result


@dataclass
class EMDStats:
    """Counters describing how a :class:`PairwiseEMD` refresh was served."""

    #: Pair distances requested in total.
    calls: int = 0
    #: Served by the vectorised vertex-enumeration batch path.
    batched: int = 0
    #: Served by the 1 x n / n x 1 closed form.
    closed_form: int = 0
    #: Dense SSP transport solves actually run.
    solves: int = 0
    #: Identical (weights, ground) instances answered from the memo.
    memo_hits: int = 0
    #: Pairs whose ground moved less than ``reuse_tol`` since last solve.
    reuse_hits: int = 0

    def merge(self, other: "EMDStats") -> None:
        self.calls += other.calls
        self.batched += other.batched
        self.closed_form += other.closed_form
        self.solves += other.solves
        self.memo_hits += other.memo_hits
        self.reuse_hits += other.reuse_hits


@dataclass
class _PairGroup:
    """Pairs sharing one (support_i, support_j) shape, batched together."""

    rows: np.ndarray  # (n_pairs,) first-distribution indices
    cols: np.ndarray  # (n_pairs,) second-distribution indices
    p_idx: np.ndarray  # (n_pairs, k_i) support index matrix
    q_idx: np.ndarray  # (n_pairs, k_j)
    p_w: np.ndarray  # (n_pairs, k_i) normalised weights
    q_w: np.ndarray  # (n_pairs, k_j)
    #: Pre-solved basic flows (n_pairs, n_trees, n_basis), enumeration path.
    flows: Optional[np.ndarray] = None
    #: (n_pairs, n_trees) mask of feasible (non-negative) bases.
    feasible: Optional[np.ndarray] = None


class PairwiseEMD:
    """Memoised, vectorised EMD over a fixed family of distributions.

    Compiled once per similarity solve: each distribution's support is
    turned into a dense index array into the ground metric, and pairs
    are grouped by support shape so a refresh gathers every pair's
    ground matrix with one fancy-indexing operation per group.

    Three serving tiers, cheapest first:

    * supports of size 1 on either side -- closed-form dot product;
    * both supports at most :data:`_BATCH_MAX_SUPPORT` -- exact LP by
      enumerating all spanning-tree bases of the transportation
      polytope, fully vectorised across pairs (the basic flows depend
      only on the weights, so they are pre-solved at compile time and
      each refresh only re-prices them against the new ground);
    * larger supports -- per-pair dense SSP (:func:`transport_dense`)
      behind two caches: an exact memo keyed by (weights, ground bytes)
      and a *reuse* cache that skips the solve while the pair's ground
      matrix moved less than ``reuse_tol`` in sup norm since the last
      solve.  EMD is 1-Lipschitz in the ground sup norm (total
      transported mass is 1), so a reused value is within ``reuse_tol``
      of the exact distance -- that is the cache invalidation rule.
    """

    def __init__(
        self,
        dists: Sequence[Mapping[T, float]],
        index: Mapping[T, int],
        reuse_tol: float = 0.0,
        memo_limit: int = 200_000,
    ) -> None:
        if reuse_tol < 0:
            raise ValueError("reuse_tol must be non-negative")
        self.reuse_tol = reuse_tol
        self.memo_limit = memo_limit
        self.stats = EMDStats()
        self.n = len(dists)
        self._sup_idx: List[np.ndarray] = []
        self._weights: List[List[float]] = []
        self._w_np: List[np.ndarray] = []
        self._w_bytes: List[bytes] = []
        for d in dists:
            if not d:
                raise ValueError("distributions must be non-empty")
            keys = list(d)
            raw = [float(d[k]) for k in keys]
            total = sum(raw)
            if total <= _EPS:
                raise ValueError("distributions must have positive mass")
            w = [x / total for x in raw]
            arr = np.array(w)
            self._sup_idx.append(np.array([index[k] for k in keys], dtype=np.intp))
            self._weights.append(w)
            self._w_np.append(arr)
            self._w_bytes.append(arr.tobytes())

        by_shape: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        self._large_pairs: List[Tuple[int, int]] = []
        for i in range(self.n):
            ki = len(self._sup_idx[i])
            for j in range(i + 1, self.n):
                kj = len(self._sup_idx[j])
                if ki == 1 or kj == 1 or _n_trees(ki, kj) <= _BATCH_MAX_TREES:
                    by_shape.setdefault((ki, kj), []).append((i, j))
                else:
                    self._large_pairs.append((i, j))

        self._groups: Dict[Tuple[int, int], _PairGroup] = {}
        for shape, pairs in by_shape.items():
            ki, kj = shape
            if ki > 1 and kj > 1:
                flow_elements = len(pairs) * _n_trees(ki, kj) * (ki + kj - 1)
                if flow_elements > _BATCH_MAX_ELEMENTS:
                    self._large_pairs.extend(pairs)
                    continue
            rows = np.array([p[0] for p in pairs], dtype=np.intp)
            cols = np.array([p[1] for p in pairs], dtype=np.intp)
            group = _PairGroup(
                rows=rows,
                cols=cols,
                p_idx=np.stack([self._sup_idx[i] for i in rows]),
                q_idx=np.stack([self._sup_idx[j] for j in cols]),
                p_w=np.stack([self._w_np[i] for i in rows]),
                q_w=np.stack([self._w_np[j] for j in cols]),
            )
            if ki > 1 and kj > 1:
                _, solve = _transport_bases(ki, kj)
                marginals = np.concatenate([group.p_w, group.q_w], axis=1)
                # flows[p, t, k]: basic flow of tree t's k-th edge for pair p.
                group.flows = np.einsum("tkc,pc->ptk", solve, marginals)
                group.feasible = (group.flows >= -1e-10).all(axis=2)
            self._groups[shape] = group

        #: Per-pair (ground, value) of the last actual solve (large pairs).
        self._pair_cache: Dict[Tuple[int, int], Tuple[np.ndarray, float]] = {}
        #: Exact memo over (weights_i, weights_j, ground bytes).
        self._memo: Dict[Tuple[bytes, bytes, bytes], float] = {}

    # ------------------------------------------------------------------
    def refresh(self, delta: np.ndarray) -> np.ndarray:
        """All pairwise EMDs under the ground metric ``delta``.

        ``delta`` is a dense point-distance matrix indexed by the
        support indices the engine was compiled with.  Returns a
        symmetric ``n x n`` matrix with a zero diagonal.
        """
        out = np.zeros((self.n, self.n))
        stats = self.stats
        for (ki, kj), group in self._groups.items():
            n_pairs = len(group.rows)
            ground = delta[group.p_idx[:, :, None], group.q_idx[:, None, :]]
            if ki == 1:
                values = np.einsum("pj,pj->p", ground[:, 0, :], group.q_w)
                stats.closed_form += n_pairs
            elif kj == 1:
                values = np.einsum("pi,pi->p", ground[:, :, 0], group.p_w)
                stats.closed_form += n_pairs
            else:
                edges, _ = _transport_bases(ki, kj)
                priced = ground.reshape(n_pairs, ki * kj)[:, edges]
                costs = np.einsum("ptk,ptk->pt", group.flows, priced)
                costs = np.where(group.feasible, costs, np.inf)
                values = costs.min(axis=1)
                stats.batched += n_pairs
            values = np.maximum(values, 0.0)
            out[group.rows, group.cols] = values
            out[group.cols, group.rows] = values
            stats.calls += n_pairs

        for i, j in self._large_pairs:
            value = self._distance_large(i, j, delta)
            out[i, j] = value
            out[j, i] = value
            stats.calls += 1
        return out

    # ------------------------------------------------------------------
    def _distance_large(self, i: int, j: int, delta: np.ndarray) -> float:
        gi, gj = self._sup_idx[i], self._sup_idx[j]
        ground = delta[gi[:, None], gj]
        cached = self._pair_cache.get((i, j))
        if cached is not None:
            prev_ground, prev_value = cached
            if float(np.abs(ground - prev_ground).max()) <= self.reuse_tol:
                self.stats.reuse_hits += 1
                return prev_value
        key = (self._w_bytes[i], self._w_bytes[j], ground.tobytes())
        value = self._memo.get(key)
        if value is None:
            value = max(
                0.0,
                transport_dense(self._weights[i], self._weights[j], ground.tolist()),
            )
            if len(self._memo) >= self.memo_limit:
                self._memo.clear()
            self._memo[key] = value
            self.stats.solves += 1
        else:
            self.stats.memo_hits += 1
        self._pair_cache[(i, j)] = (ground, value)
        return value
