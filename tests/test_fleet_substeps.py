"""The fleet's masked substep loop: every row takes its own count.

The vectorised engine integrates the KiBaM wells and the thermal
network of all rows in one substep loop.  Each row runs its own
substep count with its own ``h = dt / count``; a row past its count,
or outside the step's mask (count 0), is frozen.  The freeze costs ops
only from the smallest count on.  These tests pin that loop bit for
bit: per kernel against per-row scalar calls, and end to end against
the scalar engine on a fleet whose rows take different well and
thermal substep counts (a served benchmark grid takes one of each).
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.battery import kinetics as K
from repro.battery.chemistry import pick_big_little
from repro.capman.baselines import DualPolicy, HeuristicPolicy, PracticePolicy
from repro.capman.controller import CapmanPolicy
from repro.device.profiles import HONOR, NEXUS
from repro.fleet import DeviceSpec, FleetSpec
from repro.sim.discharge import run_discharge_cycle
from repro.thermal import conduction
from repro.thermal.conduction import euler_conduction
from repro.thermal.rc_network import phone_thermal_network
from repro.workload.base import Segment
from repro.workload.generators import VideoWorkload
from repro.workload.traces import Trace, record_trace

RNG = np.random.default_rng(20261017)


def bits(x: float) -> int:
    return np.float64(x).view(np.uint64).item()


# ----------------------------------------------------------------------
# Kernels: a per-row count array == one scalar call per row
# ----------------------------------------------------------------------
@pytest.mark.parametrize("counts", [
    [3, 1, 0, 2, 3, 0, 1, 2],
    [0, 0, 0, 0, 0, 0, 0, 0],
    [2, 2, 2, 2, 2, 2, 2, 2],
    [1, 4, 1, 4, 1, 4, 1, 4],
])
def test_step_wells_per_row_counts_match_scalar_calls(counts):
    counts = np.asarray(counts, dtype=np.int64)
    n = len(counts)
    y1 = RNG.uniform(0.0, 500.0, n)
    y2 = RNG.uniform(0.0, 800.0, n)
    cur = RNG.uniform(0.0, 3.0, n)
    dt = RNG.uniform(0.5, 200.0, n)
    c = RNG.uniform(0.3, 0.7, n)
    k = RNG.uniform(1e-4, 5e-3, n)
    h = dt / np.maximum(counts, 1)
    a1, a2 = K.step_wells(y1, y2, cur, h, counts, c, k)
    for i in range(n):
        s1, s2 = K.step_wells(float(y1[i]), float(y2[i]), float(cur[i]),
                              float(h[i]), int(counts[i]), float(c[i]),
                              float(k[i]))
        assert bits(s1) == bits(float(a1[i])), f"row {i}"
        assert bits(s2) == bits(float(a2[i])), f"row {i}"


def test_step_wells_equal_counts_array_is_the_int_path():
    """All rows sharing one count: the array form is the plain loop."""
    n = 16
    y1, y2 = RNG.uniform(0.0, 500.0, n), RNG.uniform(0.0, 800.0, n)
    cur, h = RNG.uniform(0.0, 3.0, n), np.full(n, 0.7)
    c, k = np.full(n, 0.5), np.full(n, 0.002)
    by_int = K.step_wells(y1, y2, cur, h, 3, c, k)
    by_rows = K.step_wells(y1, y2, cur, h, np.full(n, 3), c, k)
    for a, b in zip(by_int, by_rows):
        assert a.tobytes() == b.tobytes()


def test_step_wells_on_empty_rows():
    empty = np.empty(0)
    y1, y2 = K.step_wells(empty, empty, empty, empty,
                          np.empty(0, dtype=np.int64), empty, empty)
    assert len(y1) == len(y2) == 0


@pytest.mark.parametrize("counts", [
    [2, 0, 1, 3, 1, 0, 2, 1, 3, 3],
    [1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
])
def test_euler_conduction_per_row_counts_match_scalar_calls(counts):
    links = [(0, 2, 0.023), (0, 1, 0.008), (1, 2, 0.05), (2, 3, 0.35)]
    active = [(0, 12.0), (1, 60.0), (2, 90.0)]
    counts = np.asarray(counts, dtype=np.int64)
    n = len(counts)
    temps = [RNG.uniform(20.0, 60.0, n) for _ in range(4)]
    inj = [RNG.uniform(-1.0, 3.0, n) for _ in range(3)] + [0.0]
    dt = RNG.uniform(0.5, 150.0, n)
    h = dt / np.maximum(counts, 1)
    out = euler_conduction(temps, inj, links, active, counts, h)
    for i in range(n):
        scalar = euler_conduction(
            [float(t[i]) for t in temps],
            [float(col[i]) if isinstance(col, np.ndarray) else col
             for col in inj],
            links, active, int(counts[i]), float(h[i]))
        for node in range(4):
            assert bits(scalar[node]) == bits(float(out[node][i])), \
                f"row {i} node {node}"
        if counts[i] == 0:
            assert [float(t[i]) for t in temps] == scalar


# ----------------------------------------------------------------------
# End to end: rows with different substep counts == the scalar engine
# ----------------------------------------------------------------------
#: Video demand slices held for 97-402 s each: control steps are
#: clipped at segment ends, so only long segments let long steps run.
_TRACE = Trace([Segment(seg.demand, 97.0 + 61.0 * i, seg.syscall)
                for i, seg in enumerate(
                    record_trace(VideoWorkload(seed=11),
                                 duration_s=120.0).segments[:6])],
               name="long-video")
#: Control steps spanning one to three thermal substeps and one to
#: three LITTLE-well substeps; segment ends also shorten some steps,
#: so a row's own count changes from step to step.
CONTROL_DTS = (2.0, 60.0, 120.0, 250.0)
MAX_DURATION_S = 1500.0
POLICIES = {
    "dual": lambda: DualPolicy(capacity_mah=300.0),
    "heuristic": lambda: HeuristicPolicy(capacity_mah=150.0),
    "capman": lambda: CapmanPolicy(capacity_mah=300.0),
    "practice": lambda: PracticePolicy(capacity_mah=400.0),
}
PROFILES = {"nexus": NEXUS, "honor": HONOR}
CASES = [(policy, profile, dt) for policy in POLICIES
         for profile in PROFILES for dt in CONTROL_DTS]


def _frozen(result) -> bytes:
    return pickle.dumps(
        dataclasses.replace(result, wall_time_s=0.0, telemetry=None),
        protocol=4)


def test_grid_exercises_several_counts_per_kernel():
    """The fixture really spans distinct well and thermal counts."""
    sub = phone_thermal_network(25.0).compiled_topology()[3]
    thermal = {conduction.substep_count(dt, sub) for dt in CONTROL_DTS}
    wells = {K.well_substeps(dt, chem.kibam_c, chem.kibam_k)
             for dt in CONTROL_DTS for chem in pick_big_little()}
    assert len(thermal) >= 3 and len(wells) >= 3


def test_mixed_substep_fleet_matches_scalar_rowwise(monkeypatch):
    seen = []
    step_wells = K.step_wells

    def spy(y1, y2, current, h, steps, c, k):
        if isinstance(steps, np.ndarray):
            seen.append(np.unique(steps))
        return step_wells(y1, y2, current, h, steps, c, k)

    monkeypatch.setattr(K, "step_wells", spy)
    devices = [DeviceSpec(policy=POLICIES[policy](), trace=_TRACE,
                          profile=PROFILES[profile], control_dt=dt,
                          max_duration_s=MAX_DURATION_S)
               for policy, profile, dt in CASES]
    results = FleetSpec(devices).build().run()
    # Some step ran rows with two or more live counts at once, and
    # some step had finished rows frozen at count 0 beside live ones.
    assert any(len(u[u > 0]) >= 2 for u in seen)
    assert any(0 in u and len(u) >= 2 for u in seen)
    monkeypatch.undo()
    for (policy, profile, dt), mine in zip(CASES, results):
        ref = run_discharge_cycle(
            POLICIES[policy](), _TRACE, profile=PROFILES[profile],
            control_dt=dt, max_duration_s=MAX_DURATION_S)
        assert _frozen(mine) == _frozen(ref), (policy, profile, dt)


# ----------------------------------------------------------------------
# Build time: parameter-only work happens once
# ----------------------------------------------------------------------
def test_well_substep_cap_gives_the_scalar_counts():
    """The fleet's build-time cap plus a per-step division gives
    :func:`K.well_substeps`'s counts, non-exchanging wells included."""
    dts = np.concatenate([RNG.uniform(0.05, 900.0, 64), [0.0, 1e-7, 2.0]])
    cs = RNG.uniform(0.2, 0.8, len(dts))
    ks = RNG.uniform(1e-5, 0.5, len(dts))
    ks[::5] = 0.0
    counts = K.well_substeps_capped(dts, K.well_substep_cap(cs, ks))
    assert counts.dtype == np.int64
    for i in range(len(dts)):
        assert K.well_substeps(float(dts[i]), float(cs[i]),
                               float(ks[i])) == int(counts[i])


def test_thermal_topology_compiled_once_per_ambient(monkeypatch):
    from repro.thermal.rc_network import ThermalNetwork

    calls = []
    compiled = ThermalNetwork.compiled_topology

    def counting(net):
        calls.append(net)
        return compiled(net)

    monkeypatch.setattr(ThermalNetwork, "compiled_topology", counting)
    devices = [DeviceSpec(policy=POLICIES[policy](), trace=_TRACE,
                          profile=PROFILES[profile], ambient_c=ambient,
                          max_duration_s=MAX_DURATION_S)
               for policy in POLICIES for profile in PROFILES
               for ambient in (25.0, 35.0)]
    sim = FleetSpec(devices).build()
    assert len(devices) == 16 and len(calls) == 2
    assert sim.links == phone_thermal_network(35.0).compiled_topology()[1]
