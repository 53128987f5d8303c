"""Exact transport for the small dense problems of Algorithm 1.

The paper's Algorithm 1 computes Earth Mover's Distances with the
successive-shortest-paths (SSP) algorithm of Jewell (1962).
:func:`transport_dense` runs SSP with Johnson potentials directly on
the bipartite supply/demand structure.  Capacities and costs are
floats, as the transport problems come from probability distributions.
The general-network form it is checked against lives in
``tests/emd_oracle.py``.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["transport_dense"]

_EPS = 1e-12


def transport_dense(
    supply: Sequence[float],
    demand: Sequence[float],
    cost: Sequence[Sequence[float]],
) -> float:
    """Minimum cost of a balanced transportation problem.

    ``supply`` and ``demand`` must sum to the same total (within
    tolerance); ``cost[i][j]`` is the unit cost from supply node ``i``
    to demand node ``j``.  The SSP runs directly on the bipartite
    supply/demand structure with flat lists: no edge objects, no heap
    (a linear-scan Dijkstra is faster below a few dozen nodes).  This is the kernel behind the fast Algorithm 1
    path, where every EMD instance is a k x k problem with k equal to
    an action node's out-degree.
    """
    m, n = len(supply), len(demand)
    if m == 0 or n == 0:
        raise ValueError("supply and demand must be non-empty")
    total_supply = sum(supply)
    total_demand = sum(demand)
    if abs(total_supply - total_demand) > 1e-6 * max(1.0, total_supply):
        raise ValueError("transport problem must be balanced")
    if any(s < -_EPS for s in supply) or any(d < -_EPS for d in demand):
        raise ValueError("supplies and demands must be non-negative")

    rem_s = [float(s) for s in supply]
    rem_d = [float(d) for d in demand]
    rows = cost  # used read-only; rows must support float arithmetic
    flow = [[0.0] * n for _ in range(m)]
    u = [0.0] * m  # supply-side Johnson potentials
    v = [0.0] * n  # demand-side Johnson potentials
    inf = math.inf
    routed = 0.0
    total_cost = 0.0

    while routed + _EPS < total_supply:
        # Multi-source Dijkstra from every supply with remaining mass.
        dist_s = [0.0 if rem_s[i] > _EPS else inf for i in range(m)]
        dist_d = [inf] * n
        par_d = [-1] * n  # supply that relaxed demand j (forward edge)
        par_s = [-1] * m  # demand that relaxed supply i (backward edge)
        done_s = [False] * m
        done_d = [False] * n
        while True:
            best = inf
            bi = -1
            from_supply = True
            for i in range(m):
                if not done_s[i] and dist_s[i] < best:
                    best, bi, from_supply = dist_s[i], i, True
            for j in range(n):
                if not done_d[j] and dist_d[j] < best:
                    best, bi, from_supply = dist_d[j], j, False
            if bi < 0:
                break
            if from_supply:
                done_s[bi] = True
                row = rows[bi]
                base = dist_s[bi] + u[bi]
                for j in range(n):
                    if done_d[j]:
                        continue
                    reduced = base + row[j] - v[j]
                    if reduced < dist_s[bi]:
                        # Guard tiny negative drift from float arithmetic.
                        reduced = dist_s[bi]
                    if reduced < dist_d[j]:
                        dist_d[j] = reduced
                        par_d[j] = bi
            else:
                done_d[bi] = True
                base = dist_d[bi] + v[bi]
                for i in range(m):
                    if done_s[i] or flow[i][bi] <= _EPS:
                        continue
                    reduced = base - rows[i][bi] - u[i]
                    if reduced < dist_d[bi]:
                        reduced = dist_d[bi]
                    if reduced < dist_s[i]:
                        dist_s[i] = reduced
                        par_s[i] = bi

        # Cheapest reachable demand that still needs mass.
        target = -1
        target_dist = inf
        for j in range(n):
            if rem_d[j] > _EPS and dist_d[j] < target_dist:
                target_dist = dist_d[j]
                target = j
        if target < 0:
            break
        for i in range(m):
            if dist_s[i] < inf:
                u[i] += dist_s[i]
        for j in range(n):
            if dist_d[j] < inf:
                v[j] += dist_d[j]

        # Walk the augmenting path back to a source supply.
        path = []  # (i, j, forward)
        j = target
        while True:
            i = par_d[j]
            path.append((i, j, True))
            pj = par_s[i]
            if pj < 0:
                break
            path.append((i, pj, False))
            j = pj
        push = min(rem_d[target], rem_s[path[-1][0]])
        for i, j, forward in path:
            if not forward:
                push = min(push, flow[i][j])
        if push <= _EPS:
            break
        for i, j, forward in path:
            if forward:
                flow[i][j] += push
                total_cost += push * rows[i][j]
            else:
                flow[i][j] -= push
                total_cost -= push * rows[i][j]
        rem_s[path[-1][0]] -= push
        rem_d[target] -= push
        routed += push

    if routed < total_supply - 1e-6:
        raise RuntimeError("transport failed to route all supply")
    return total_cost
