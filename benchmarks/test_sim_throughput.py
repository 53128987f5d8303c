"""Sweep-engine throughput: the Figure 15 grid, cold vs cached.

Runs a scaled-down Figure 15 style grid (CAPMAN and Dual across the
three phone profiles) two ways and emits ``BENCH_sim.json``:

1. cold serial (empty cache) -- the baseline;
2. warm re-run (cache populated by run 1) -- the engine's incremental
   mode, which only recomputes changed cells; an unchanged spec is
   pure cache hits.

Acceptance: the engine re-runs the grid at least 4x faster than the
cold serial baseline (via the cache), the warm results equal the cold
ones exactly, and the hot-loop work keeps serial throughput above a
floor in control steps per second.
"""

import json
import os
import pickle
from pathlib import Path

from repro.analysis.reporting import format_table
from repro.capman.baselines import DualPolicy
from repro.capman.controller import CapmanPolicy
from repro.device.profiles import PHONES
from repro.sim.sweep import ScenarioRunner, SweepSpec
from repro.workload.generators import EtaStaticWorkload
from repro.workload.traces import record_trace

#: Scaled grid: full paper capacity makes this minutes-long; the
#: engine comparison only needs identical work across runs.
CELL_MAH = 400.0
WINDOW_S = 1.0 * 3600.0
TRACE_S = 600.0

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_sim.json"

#: Serial steps/sec floor the hot-loop work must hold (conservative:
#: CI machines are slow; a laptop does several tens of thousands).
MIN_STEPS_PER_SEC = 2000.0


def _grid_spec():
    trace = record_trace(EtaStaticWorkload(0.5, seed=1), TRACE_S)
    return SweepSpec(
        policies={
            "CAPMAN": CapmanPolicy(capacity_mah=CELL_MAH),
            "Dual": DualPolicy(capacity_mah=CELL_MAH),
        },
        traces={"eta-50%": trace},
        profiles=dict(PHONES),
        control_dts=(2.0,),
        max_duration_s=WINDOW_S,
    )


def _cell_bytes(results):
    return [pickle.dumps(r) for r in results]


def _measure(tmp_path):
    spec = _grid_spec()
    cache_dir = tmp_path / "sweep-cache"

    serial = ScenarioRunner(cache=cache_dir).run(spec)
    warm = ScenarioRunner(cache=cache_dir).run(spec)
    return spec, serial, warm


def test_sim_throughput(benchmark, tmp_path):
    spec, serial, warm = benchmark.pedantic(
        lambda: _measure(tmp_path), rounds=1, iterations=1
    )

    s, w = serial.stats, warm.stats
    speedup_warm = s.total_wall_s / max(w.total_wall_s, 1e-9)
    rows = [
        ["serial cold", s.total_wall_s, s.steps_per_sec, s.cache_hits],
        ["serial warm (cache)", w.total_wall_s, float("nan"), w.cache_hits],
    ]
    print()
    print(format_table(
        ["run", "wall (s)", "steps/s", "cache hits"],
        rows,
        title="Sweep engine -- Figure 15 grid, cold vs cached",
    ))

    payload = {
        "grid": {
            "cells": len(spec),
            "policies": list(spec.policies),
            "profiles": list(spec.profiles),
            "cell_mah": CELL_MAH,
            "window_s": WINDOW_S,
        },
        "serial": s.as_dict(),
        "warm": w.as_dict(),
        "speedup_warm": speedup_warm,
        "cpu_count": os.cpu_count(),
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"  wrote {BENCH_PATH}")

    # The warm run serves every cell from cache, with identical payloads.
    assert w.cache_hits == len(spec) and w.cells_computed == 0
    assert _cell_bytes(warm.results) == _cell_bytes(serial.results)

    # Acceptance: re-running the grid through the engine is >= 4x the
    # cold serial wall clock (pure cache hits recompute nothing).
    assert speedup_warm >= 4.0, payload

    # Hot-loop floor: the step loop sustains real throughput serially.
    assert s.steps_per_sec >= MIN_STEPS_PER_SEC, s.as_dict()
