"""Scaling benchmark: fast vs reference Algorithm 1 solvers.

Times :class:`StructuralSimilarity` against the reference transcription
kept in ``tests/similarity_oracle.py`` on random decision graphs of
growing size and on the profiled CAPMAN MDP, prints the speedup table,
and asserts the acceptance bar: at thirty-plus states (sixty-plus
action nodes) the vectorised solver is at least 5x faster while landing
on the same fixed point to 1e-8.
"""

import sys
import time
from pathlib import Path

import numpy as np

from repro.analysis.reporting import format_table
from repro.core.graph import MDPGraph
from repro.core.mdp import random_mdp
from repro.core.similarity import StructuralSimilarity

_TESTS = Path(__file__).resolve().parents[1] / "tests"
if str(_TESTS) not in sys.path:
    sys.path.insert(0, str(_TESTS))

from similarity_oracle import solve_reference  # noqa: E402

#: (n_states, n_actions, branching, absorbing) per scale step.
SIZES = [
    (8, 2, 3, 1),
    (16, 2, 3, 2),
    (24, 2, 3, 2),
    (34, 2, 3, 2),
]
TOL = 1e-6
MAX_ITER = 200


def solve_fast(graph, **kwargs):
    return StructuralSimilarity(graph, **kwargs).solve()


def _solve(graph, solve):
    started = time.perf_counter()
    res = solve(graph, c_s=0.95, c_a=0.95, tol=TOL, max_iter=MAX_ITER)
    return res, time.perf_counter() - started


def _scaling_rows():
    rows = []
    for n_states, n_actions, branching, absorbing in SIZES:
        graph = MDPGraph(
            random_mdp(n_states, n_actions, branching=branching, seed=7, absorbing=absorbing)
        )
        ref, ref_s = _solve(graph, solve_reference)
        fast, fast_s = _solve(graph, solve_fast)
        agreement = float(
            max(
                np.abs(fast.state_sim - ref.state_sim).max(),
                np.abs(fast.action_sim - ref.action_sim).max(),
            )
        )
        rows.append(
            {
                "n_states": n_states,
                "n_actions": graph.n_action_nodes,
                "ref_s": ref_s,
                "fast_s": fast_s,
                "speedup": ref_s / fast_s if fast_s > 0 else float("inf"),
                "agreement": agreement,
                "iters": (ref.iterations, fast.iterations),
            }
        )
    return rows


def test_solver_scaling(benchmark):
    rows = benchmark.pedantic(_scaling_rows, rounds=1, iterations=1)

    print()
    print(
        format_table(
            ["states", "action nodes", "reference (s)", "fast (s)", "speedup", "max |diff|"],
            [
                [
                    r["n_states"],
                    r["n_actions"],
                    r["ref_s"],
                    r["fast_s"],
                    r["speedup"],
                    r["agreement"],
                ]
                for r in rows
            ],
            title="Algorithm 1 solver scaling -- reference vs fast",
        )
    )

    for r in rows:
        # Same fixed point, same iteration count, everywhere.
        assert r["agreement"] <= 1e-8, r
        assert r["iters"][0] == r["iters"][1], r

    # Acceptance bar: >= 5x at >= 30 states / >= 60 action nodes.
    big = [r for r in rows if r["n_states"] >= 30 and r["n_actions"] >= 60]
    assert big, "scaling sweep must include an acceptance-scale graph"
    for r in big:
        assert r["speedup"] >= 5.0, r

    # Speedup should grow with problem size (vectorisation amortises).
    assert rows[-1]["speedup"] > rows[0]["speedup"]
