"""Property tests for the fleet batch (hypothesis).

Three structural invariants that must hold for *any* batch
composition, not just the seeded differential grid:

* **Permutation invariance** -- the device axis is pure data; shuffling
  rows shuffles results and changes nothing else.
* **Row independence** -- a device's result does not depend on who else
  is in the batch (each row equals its own batch-of-1 run).
* **Physical sanity** -- no NaN anywhere, no negative charge, no
  sub-ambient-implausible temperature, whatever the batch mix.
"""

from __future__ import annotations

import dataclasses
import functools
import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capman.baselines import DualPolicy, HeuristicPolicy, PracticePolicy
from repro.capman.controller import CapmanPolicy
from repro.device.profiles import HONOR, NEXUS
from repro.fleet import DeviceSpec, FleetSpec
from repro.workload.generators import EtaStaticWorkload, VideoWorkload
from repro.workload.traces import record_trace

CONTROL_DT = 2.0
MAX_DURATION_S = 120.0
_VIDEO = record_trace(VideoWorkload(seed=7), duration_s=90.0)
_ETA = record_trace(EtaStaticWorkload(0.5, seed=1), duration_s=90.0)

#: Small heterogeneous pool the strategies index into.  Mixes policies
#: (all vector-driven: Dual, CAPMAN, Heuristic, Practice), pack kinds
#: (big.LITTLE and single-battery), profiles, traces and capacities --
#: including a 40 mAh cell that depletes inside the window to drag the
#: irregular-row fallback path into the properties, an 80 mAh Practice
#: cell that browns out, and a CAPMAN twin so random batches exercise
#: trajectory dedupe.
POOL = [
    ("dual-nexus-small",
     lambda: DeviceSpec(policy=DualPolicy(capacity_mah=40.0), trace=_VIDEO,
                        profile=NEXUS, control_dt=CONTROL_DT,
                        max_duration_s=MAX_DURATION_S)),
    ("capman-honor",
     lambda: DeviceSpec(policy=CapmanPolicy(capacity_mah=120.0), trace=_VIDEO,
                        profile=HONOR, control_dt=CONTROL_DT,
                        max_duration_s=MAX_DURATION_S)),
    ("heuristic-nexus",
     lambda: DeviceSpec(policy=HeuristicPolicy(capacity_mah=120.0),
                        trace=_ETA, profile=NEXUS, control_dt=CONTROL_DT,
                        max_duration_s=MAX_DURATION_S)),
    ("dual-honor-eta",
     lambda: DeviceSpec(policy=DualPolicy(capacity_mah=400.0), trace=_ETA,
                        profile=HONOR, control_dt=CONTROL_DT,
                        max_duration_s=MAX_DURATION_S)),
    ("practice-nexus",
     lambda: DeviceSpec(policy=PracticePolicy(capacity_mah=400.0),
                        trace=_VIDEO, profile=NEXUS, control_dt=CONTROL_DT,
                        max_duration_s=MAX_DURATION_S)),
    ("practice-honor-eta-small",
     lambda: DeviceSpec(policy=PracticePolicy(capacity_mah=80.0),
                        trace=_ETA, profile=HONOR, control_dt=CONTROL_DT,
                        max_duration_s=MAX_DURATION_S)),
    # Same configuration as capman-honor: batches drawing both rows
    # must dedupe them onto one learned trajectory and still match.
    ("capman-honor-twin",
     lambda: DeviceSpec(policy=CapmanPolicy(capacity_mah=120.0), trace=_VIDEO,
                        profile=HONOR, control_dt=CONTROL_DT,
                        max_duration_s=MAX_DURATION_S)),
]


def _frozen(result) -> bytes:
    return pickle.dumps(
        dataclasses.replace(result, wall_time_s=0.0, telemetry=None),
        protocol=4)


@functools.lru_cache(maxsize=None)
def _solo_frozen(pool_index: int) -> bytes:
    """Frozen batch-of-1 result for one pool device (cached)."""
    [result] = FleetSpec([POOL[pool_index][1]()]).build().run()
    return _frozen(result)


@settings(max_examples=10, deadline=None)
@given(order=st.permutations(range(len(POOL))))
def test_device_axis_is_permutation_invariant(order):
    sim = FleetSpec([POOL[i][1]() for i in order]).build()
    results = sim.run()
    for slot, pool_index in enumerate(order):
        assert _frozen(results[slot]) == _solo_frozen(pool_index), \
            f"{POOL[pool_index][0]} changed under ordering {order}"


@settings(max_examples=10, deadline=None)
@given(rows=st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=6))
def test_rows_are_independent_of_batch_mates(rows):
    """Any multiset of pool devices: each row equals its solo run."""
    sim = FleetSpec([POOL[i][1]() for i in rows]).build()
    results = sim.run()
    assert len(results) == len(rows)
    for slot, pool_index in enumerate(rows):
        assert _frozen(results[slot]) == _solo_frozen(pool_index), \
            f"{POOL[pool_index][0]} contaminated by batch {rows}"


@settings(max_examples=8, deadline=None)
@given(rows=st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=5))
def test_state_stays_physical(rows):
    """After a full run: finite everywhere, charges non-negative,
    temperatures sane, accounting monotone."""
    sim = FleetSpec([POOL[i][1]() for i in rows]).build()
    results = sim.run()
    st_ = sim.state

    for arr in (st_.avail_b, st_.bound_b, st_.avail_l, st_.bound_l,
                st_.throughput_b, st_.throughput_l, st_.energy_j,
                st_.big_time_s, st_.little_time_s, st_.hot_time_s,
                st_.tec_on_time_s, st_.tec_energy_j, st_.service_time_s,
                st_.supercap_v):
        assert np.all(np.isfinite(arr))
        assert np.all(arr >= 0.0), arr
    for temps in st_.node_temps:
        assert np.all(np.isfinite(temps))
        assert np.all(temps > -40.0) and np.all(temps < 200.0)
    assert np.all(np.isfinite(st_.cell_temp_c))
    assert np.all(st_.steps_run >= 1)
    assert np.all(st_.switch_events >= 0)
    assert np.all(st_.brownouts >= 0)

    for result in results:
        assert result.energy_delivered_j >= 0.0
        assert result.service_time_s > 0.0
        assert np.isfinite(result.max_cpu_temp_c)
        soc = result.metrics.series("soc")
        assert np.all(np.isfinite(soc.values))
        assert np.all(soc.values >= 0.0)
        assert np.all(soc.values <= 1.0 + 1e-12)
        assert np.all(np.diff(soc.times) > 0.0)  # strictly increasing time
