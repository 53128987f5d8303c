"""The decision MDPs CAPMAN's profiler actually builds, for solver tests.

Runs one scalar CAPMAN cell per trace kind and phone profile of the
repository benchmark's served grid (400 mAh cells, 300 s traces and
window, 2 s control step) and captures every MDP that
:meth:`repro.capman.profiler.PowerProfiler.build_decision_mdp` returns
along the way.  Import it from a test (``tests/`` is on ``sys.path``
under pytest).
"""

from __future__ import annotations

import functools
from typing import List, Tuple

from repro.capman.controller import CapmanPolicy
from repro.capman.profiler import PowerProfiler
from repro.core.mdp import MDP
from repro.device.profiles import PHONES
from repro.service.schemas import parse_trace
from repro.sim.discharge import run_discharge_cycle

__all__ = ["TRACE_RECIPES", "decision_mdps"]

#: One recipe per benchmark trace kind, in the service's wire format.
TRACE_RECIPES = {
    "video": {"workload": "video", "seed": 7, "duration_s": 300.0},
    "pcmark": {"workload": "pcmark", "seed": 7, "duration_s": 300.0},
    "eta_static": {"workload": "eta_static", "seed": 7, "eta": 0.5,
                   "duration_s": 300.0},
    "skewed_burst": {"workload": "skewed_burst", "seed": 7,
                     "duration_s": 300.0},
}


@functools.lru_cache(maxsize=None)
def decision_mdps() -> Tuple[Tuple[str, int, MDP], ...]:
    """``("<kind>/<profile>", build index, mdp)`` for every MDP built."""
    captured: List[Tuple[str, int, MDP]] = []
    build = PowerProfiler.build_decision_mdp
    for kind, recipe in TRACE_RECIPES.items():
        trace = parse_trace(kind, recipe)
        for name, profile in PHONES.items():
            built: List[MDP] = []

            def capture(self, *args, **kwargs):
                mdp = build(self, *args, **kwargs)
                built.append(mdp)
                return mdp

            PowerProfiler.build_decision_mdp = capture
            try:
                run_discharge_cycle(
                    CapmanPolicy(capacity_mah=400.0), trace, profile=profile,
                    control_dt=2.0, max_duration_s=300.0)
            finally:
                PowerProfiler.build_decision_mdp = build
            captured += [(f"{kind}/{name}", i, mdp)
                         for i, mdp in enumerate(built)]
    return tuple(captured)
