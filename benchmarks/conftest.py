"""Shared machinery for the benchmark harness.

Each ``benchmarks/test_*`` file regenerates one table or figure of the
paper: it runs the experiment (timed by pytest-benchmark), prints the
same rows/series the paper reports, and asserts the qualitative
*shape* (orderings, crossovers) -- not absolute hardware numbers.

The evaluation grids all run in this process through the
scenario-sweep engine (:mod:`repro.sim.sweep`).  ``CAPMAN_SWEEP_CACHE``
names a directory for its on-disk result cache (default unset = no
caching; re-runs with a cache directory only recompute cells whose
configuration or code changed); :func:`sweep_runner` documents the
journal knobs.

Run with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import os
from typing import Dict, Optional

import pytest

from repro.capman.baselines import (
    DualPolicy,
    HeuristicPolicy,
    OraclePolicy,
    PracticePolicy,
)
from repro.capman.controller import CapmanPolicy
from repro.device.profiles import NEXUS, PhoneProfile
from repro.sim.discharge import DischargeResult, run_discharge_cycle
from repro.sim.sweep import ScenarioRunner, SimStats, SweepResult, SweepSpec
from repro.workload.generators import (
    EtaStaticWorkload,
    GeekbenchWorkload,
    PCMarkWorkload,
    VideoWorkload,
)
from repro.workload.traces import Trace, record_trace

#: Evaluation scale (the paper's cells are 2500 mAh each).
EVAL_CELL_MAH = 2500.0
#: Control step of the evaluation harness (s).
CONTROL_DT = 2.0
#: Wall-clock cap per discharge cycle (simulated seconds).
MAX_CYCLE_S = 60.0 * 3600.0
#: Trace length before looping (s).
TRACE_S = 1800.0


def evaluation_workloads() -> Dict[str, object]:
    """The six Figure 12 workloads."""
    return {
        "Geekbench": GeekbenchWorkload(seed=1),
        "PCMark": PCMarkWorkload(seed=1),
        "Video": VideoWorkload(seed=1),
        "eta-20%": EtaStaticWorkload(0.2, seed=1),
        "eta-50%": EtaStaticWorkload(0.5, seed=1),
        "eta-80%": EtaStaticWorkload(0.8, seed=1),
    }


def evaluation_policies() -> Dict[str, object]:
    """The five Figure 12 policies, freshly constructed."""
    return {
        "Practice": PracticePolicy(capacity_mah=2 * EVAL_CELL_MAH),
        "Dual": DualPolicy(capacity_mah=EVAL_CELL_MAH),
        "Heuristic": HeuristicPolicy(capacity_mah=EVAL_CELL_MAH),
        "CAPMAN": CapmanPolicy(capacity_mah=EVAL_CELL_MAH),
        "Oracle": OraclePolicy(capacity_mah=EVAL_CELL_MAH),
    }


def sweep_runner(journal=None, checkpoint_every_steps=None) -> ScenarioRunner:
    """The shared evaluation runner, configured from the environment.

    ``CAPMAN_SWEEP_JOURNAL`` (a journal path) and
    ``CAPMAN_SWEEP_CKPT_STEPS`` (an in-cell sidecar cadence) opt long
    grids into crash-durable, resumable execution; callers may also
    pass both explicitly.  Journalled callers should drive the runner
    through :meth:`ScenarioRunner.run_or_resume` so a re-invoked job
    picks up its own journal instead of refusing it.
    """
    cache_dir = os.environ.get("CAPMAN_SWEEP_CACHE") or None
    if journal is None:
        journal = os.environ.get("CAPMAN_SWEEP_JOURNAL") or None
    if checkpoint_every_steps is None:
        checkpoint_every_steps = int(
            os.environ.get("CAPMAN_SWEEP_CKPT_STEPS", "0"))
    return ScenarioRunner(cache=cache_dir, journal=journal,
                          checkpoint_every_steps=checkpoint_every_steps)


def run_sweep(
    policies: Dict[str, object],
    traces: Dict[str, Trace],
    profiles: Optional[Dict[str, PhoneProfile]] = None,
    max_duration_s: float = MAX_CYCLE_S,
    control_dt: float = CONTROL_DT,
) -> SweepResult:
    """One evaluation grid at paper scale through the sweep engine."""
    spec = SweepSpec(
        policies=policies,
        traces=traces,
        profiles=profiles or {"Nexus": NEXUS},
        control_dts=(control_dt,),
        max_duration_s=max_duration_s,
    )
    return sweep_runner().run_or_resume(spec)


def run_cycle(
    policy,
    trace: Trace,
    profile: PhoneProfile = NEXUS,
    max_duration_s: float = MAX_CYCLE_S,
) -> DischargeResult:
    """One evaluation discharge cycle at paper scale."""
    return run_discharge_cycle(
        policy, trace, profile=profile, control_dt=CONTROL_DT,
        max_duration_s=max_duration_s,
    )


class ResultStore:
    """Cross-file cache so later figures reuse the Figure 12 matrix."""

    def __init__(self) -> None:
        self.fig12: Dict[str, Dict[str, DischargeResult]] = {}
        self.traces: Dict[str, Trace] = {}

    def trace(self, name: str) -> Trace:
        if name not in self.traces:
            self.traces[name] = record_trace(evaluation_workloads()[name], TRACE_S)
        return self.traces[name]


_STORE: Optional[ResultStore] = None


@pytest.fixture(scope="session")
def store() -> ResultStore:
    """Session-wide result cache."""
    global _STORE
    if _STORE is None:
        _STORE = ResultStore()
    return _STORE
