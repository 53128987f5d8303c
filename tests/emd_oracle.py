"""Reference EMD: the scalar min-cost-flow oracle the fast path is checked against.

The paper's Algorithm 1 computes Earth Mover's Distances with the
successive-shortest-paths (SSP) algorithm of Jewell (1962).  This is
that algorithm on a general flow network: Dijkstra over reduced costs
(Johnson potentials), so each augmentation is a non-negative-edge
shortest-path run.  :func:`repro.core.minflow.transport_dense` and
:class:`repro.core.emd.PairwiseEMD` must reach the same optimum as
:func:`transport` here; :func:`emd_1d` is the closed form on a line.
Import it from a test (``tests/`` is on ``sys.path`` under pytest) or
put ``tests/`` on ``sys.path`` first, as the scaling benchmark does.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Hashable, List, Mapping, Optional, Sequence, Tuple, TypeVar

__all__ = ["MinCostFlow", "transport", "emd", "emd_dicts", "emd_1d"]

T = TypeVar("T", bound=Hashable)

_EPS = 1e-12


@dataclass
class _Edge:
    to: int
    cap: float
    cost: float
    #: Index of the reverse edge in ``graph[to]``.
    rev: int


class MinCostFlow:
    """A min-cost-flow network over integer node ids.

    Usage: ``add_edge`` to build, then :meth:`solve` to push a given
    amount of flow from source to sink at minimum cost.
    """

    def __init__(self, n_nodes: int) -> None:
        if n_nodes <= 0:
            raise ValueError("network needs at least one node")
        self.n = n_nodes
        self.graph: List[List[_Edge]] = [[] for _ in range(n_nodes)]

    def add_edge(self, frm: int, to: int, cap: float, cost: float) -> None:
        """Add a directed edge with capacity and per-unit cost."""
        if not (0 <= frm < self.n and 0 <= to < self.n):
            raise IndexError("edge endpoint out of range")
        if cap < 0:
            raise ValueError("capacity must be non-negative")
        self.graph[frm].append(_Edge(to, cap, cost, len(self.graph[to])))
        self.graph[to].append(_Edge(frm, 0.0, -cost, len(self.graph[frm]) - 1))

    def solve(self, source: int, sink: int, max_flow: float) -> Tuple[float, float]:
        """Push up to ``max_flow`` units; returns (flow_sent, total_cost).

        Successive shortest paths: repeatedly find the cheapest
        augmenting path under reduced costs and saturate it.  Stops
        early when the sink becomes unreachable.
        """
        if max_flow < 0:
            raise ValueError("max_flow must be non-negative")
        flow = 0.0
        cost = 0.0
        potential = [0.0] * self.n
        while flow + _EPS < max_flow:
            dist, parent = self._dijkstra(source, potential)
            if dist[sink] == math.inf:
                break
            for i in range(self.n):
                if dist[i] < math.inf:
                    potential[i] += dist[i]
            # Find bottleneck along the path.
            push = max_flow - flow
            v = sink
            while v != source:
                u, ei = parent[v]
                push = min(push, self.graph[u][ei].cap)
                v = u
            if push <= _EPS:
                break
            # Apply.
            v = sink
            while v != source:
                u, ei = parent[v]
                edge = self.graph[u][ei]
                edge.cap -= push
                self.graph[edge.to][edge.rev].cap += push
                cost += push * edge.cost
                v = u
            flow += push
        return flow, cost

    def _dijkstra(
        self, source: int, potential: Sequence[float]
    ) -> Tuple[List[float], List[Optional[Tuple[int, int]]]]:
        dist = [math.inf] * self.n
        parent: List[Optional[Tuple[int, int]]] = [None] * self.n
        dist[source] = 0.0
        heap: List[Tuple[float, int]] = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u] + _EPS:
                continue
            for ei, edge in enumerate(self.graph[u]):
                if edge.cap <= _EPS:
                    continue
                reduced = edge.cost + potential[u] - potential[edge.to]
                # Guard tiny negative drift from float arithmetic.
                if reduced < -1e-6:
                    reduced = 0.0
                nd = d + reduced
                if nd + _EPS < dist[edge.to]:
                    dist[edge.to] = nd
                    parent[edge.to] = (u, ei)
                    heapq.heappush(heap, (nd, edge.to))
        return dist, parent


def transport(
    supply: Sequence[float],
    demand: Sequence[float],
    cost: Sequence[Sequence[float]],
) -> float:
    """Solve a balanced transportation problem; returns minimum cost.

    ``supply`` and ``demand`` must sum to the same total (within
    tolerance); ``cost[i][j]`` is the unit cost from supply node ``i``
    to demand node ``j``.  This is the kernel of the EMD computation.
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

    # Nodes: 0 = source, 1..m = supplies, m+1..m+n = demands, m+n+1 = sink.
    net = MinCostFlow(m + n + 2)
    source, sink = 0, m + n + 1
    for i, s in enumerate(supply):
        if s > _EPS:
            net.add_edge(source, 1 + i, s, 0.0)
    for j, d in enumerate(demand):
        if d > _EPS:
            net.add_edge(1 + m + j, sink, d, 0.0)
    for i in range(m):
        if supply[i] <= _EPS:
            continue
        row = cost[i]
        for j in range(n):
            if demand[j] <= _EPS:
                continue
            net.add_edge(1 + i, 1 + m + j, math.inf, float(row[j]))
    sent, total_cost = net.solve(source, sink, total_supply)
    if sent < total_supply - 1e-6:
        raise RuntimeError("transport failed to route all supply")
    return total_cost



def emd(
    p: Sequence[float],
    q: Sequence[float],
    ground: Sequence[Sequence[float]],
) -> float:
    """EMD between two probability vectors.

    ``ground[i][j]`` is the ground distance from ``p``'s support point
    ``i`` to ``q``'s support point ``j`` -- the supports may differ
    (``ground`` is then rectangular).  Both vectors are normalised
    defensively; the result lies in ``[0, max(ground)]``.
    """
    if len(p) == 0 or len(q) == 0:
        raise ValueError("empty distributions")
    if len(ground) != len(p) or any(len(row) != len(q) for row in ground):
        raise ValueError("ground matrix shape must be len(p) x len(q)")
    sp, sq = sum(p), sum(q)
    if sp <= _EPS or sq <= _EPS:
        raise ValueError("distributions must have positive mass")
    pn = [x / sp for x in p]
    qn = [x / sq for x in q]
    # Fast path: identical distributions over an aligned support (the
    # diagonal must be zero, i.e. index i really is the same point).
    if (
        len(pn) == len(qn)
        and all(abs(a - b) <= 1e-12 for a, b in zip(pn, qn))
        and all(abs(ground[i][i]) <= 1e-12 for i in range(len(pn)))
    ):
        return 0.0
    return transport(pn, qn, ground)


def emd_dicts(
    p: Mapping[T, float],
    q: Mapping[T, float],
    distance: Callable[[T, T], float],
) -> float:
    """EMD between sparse distributions keyed by arbitrary points.

    This is the form Algorithm 1 needs: ``p`` and ``q`` are next-state
    distributions of two action nodes, and ``distance`` is the current
    state-distance estimate ``delta_S``.
    """
    if not p or not q:
        raise ValueError("distributions must be non-empty")
    keys_p = list(p)
    keys_q = list(q)
    ground = [[float(distance(a, b)) for b in keys_q] for a in keys_p]
    return emd([p[k] for k in keys_p], [q[k] for k in keys_q], ground)


def emd_1d(p: Sequence[float], q: Sequence[float],
           positions: Sequence[float]) -> float:
    """Closed-form EMD when support points live on a line.

    Equals the integral of the absolute difference of CDFs (weighted by
    gaps between sorted positions); used as a cross-check for the flow
    solver in tests.
    """
    if not (len(p) == len(q) == len(positions)):
        raise ValueError("inputs must have equal length")
    order = sorted(range(len(positions)), key=lambda i: positions[i])
    sp, sq = sum(p), sum(q)
    if sp <= _EPS or sq <= _EPS:
        raise ValueError("distributions must have positive mass")
    cdf_gap = 0.0
    total = 0.0
    for idx in range(len(order) - 1):
        i = order[idx]
        cdf_gap += p[i] / sp - q[i] / sq
        gap = positions[order[idx + 1]] - positions[i]
        total += abs(cdf_gap) * gap
    return total
