"""CAPMAN-specific fleet machinery: trajectory dedupe and counters.

``tests/test_fleet_vs_scalar.py`` proves the vectorised CAPMAN driver
bit-equal to the scalar oracle; this module pins down the *mechanisms*
behind that speed -- rows with matching (trace content, profile,
learning parameters) must share one learned trajectory and still equal
their independent scalar runs, a served-shaped sweep must equal the
scalar oracle, and the work counters must surface through the obs
registry without disturbing any result.
"""

from __future__ import annotations

import dataclasses
import functools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.capman.baselines import DualPolicy
from repro.capman.controller import CapmanPolicy
from repro.device.profiles import HONOR, NEXUS
from repro.fleet import DeviceSpec, FleetSpec
from repro.sim.discharge import run_discharge_cycle
from repro.sim.executors import LocalProcessExecutor
from repro.sim.sweep import ScenarioRunner, SweepSpec
from repro.workload.generators import VideoWorkload
from repro.workload.traces import record_trace

CONTROL_DT = 2.0
MAX_DURATION_S = 300.0
#: Surviving capacity: rows run the full window, so every replan
#: boundary in it is reached and the compiled-table path dominates.
CAPACITY_MAH = 400.0
_TRACE = record_trace(VideoWorkload(seed=11), duration_s=120.0)

#: Named CAPMAN variants the properties permute over.  "eager" and
#: "eager-twin" are deliberately identical configurations -- any batch
#: containing both must dedupe them into one trajectory.
VARIANTS = {
    "eager": lambda: CapmanPolicy(capacity_mah=CAPACITY_MAH),
    "eager-twin": lambda: CapmanPolicy(capacity_mah=CAPACITY_MAH),
    "replan": lambda: CapmanPolicy(capacity_mah=CAPACITY_MAH,
                                   min_observations=3, replan_interval=5),
    "small-cell": lambda: CapmanPolicy(capacity_mah=120.0),
}


def _frozen(result) -> bytes:
    return pickle.dumps(
        dataclasses.replace(result, wall_time_s=0.0, telemetry=None),
        protocol=4)


def _device(policy, trace=_TRACE, profile=NEXUS) -> DeviceSpec:
    return DeviceSpec(policy=policy, trace=trace, profile=profile,
                      control_dt=CONTROL_DT, max_duration_s=MAX_DURATION_S)


@functools.lru_cache(maxsize=None)
def _solo_frozen(variant: str) -> bytes:
    return _frozen(run_discharge_cycle(
        VARIANTS[variant](), _TRACE, profile=NEXUS, control_dt=CONTROL_DT,
        max_duration_s=MAX_DURATION_S))


# ----------------------------------------------------------------------
# Trajectory dedupe
# ----------------------------------------------------------------------
def test_identical_rows_share_one_trajectory():
    """N clones pay for one learning replay; every row still equals
    the independent scalar run."""
    n = 4
    sim = FleetSpec([_device(CapmanPolicy(capacity_mah=CAPACITY_MAH))
                     for _ in range(n)]).build()
    results = sim.run()

    assert sim.rows_adapted == 0
    assert sim.rows_vectorised == n
    assert sim.trajectory_dedupe_hits == n - 1
    assert sim.table_compiles >= 1

    solo = _solo_frozen("eager")
    for mine in results:
        assert _frozen(mine) == solo

    # The dedupe saved real solves: a batch of one performs the same
    # number of compiles as the whole deduped batch.
    solo_sim = FleetSpec(
        [_device(CapmanPolicy(capacity_mah=CAPACITY_MAH))]).build()
    solo_sim.run()
    assert sim.table_compiles == solo_sim.table_compiles


def test_content_equal_distinct_traces_dedupe():
    """Dedupe keys on trace *content*, not object identity: two
    separately recorded but identical traces share a trajectory."""
    twin = record_trace(VideoWorkload(seed=11), duration_s=120.0)
    assert twin is not _TRACE
    sim = FleetSpec([
        _device(CapmanPolicy(capacity_mah=CAPACITY_MAH), trace=_TRACE),
        _device(CapmanPolicy(capacity_mah=CAPACITY_MAH), trace=twin),
    ]).build()
    results = sim.run()
    assert sim.trajectory_dedupe_hits == 1
    for mine in results:
        assert _frozen(mine) == _solo_frozen("eager")


def test_distinct_learning_configs_do_not_dedupe():
    """Different capacity (it parameterises the profiler's cost model)
    must split trajectories; results stay exact per row."""
    sim = FleetSpec([
        _device(VARIANTS["eager"]()),
        _device(VARIANTS["small-cell"]()),
    ]).build()
    results = sim.run()
    assert sim.trajectory_dedupe_hits == 0
    assert _frozen(results[0]) == _solo_frozen("eager")
    assert _frozen(results[1]) == _solo_frozen("small-cell")


def test_fallback_threshold_does_not_split_trajectories():
    """``fallback_threshold_w`` shapes only the per-row fallback mask,
    never the learned model, so it must not defeat the dedupe -- while
    each row still matches its own scalar run."""
    hot = CapmanPolicy(capacity_mah=CAPACITY_MAH, fallback_threshold_w=0.1)
    base = CapmanPolicy(capacity_mah=CAPACITY_MAH)
    assert hot.fallback_threshold_w != base.fallback_threshold_w
    sim = FleetSpec([_device(base), _device(hot)]).build()
    results = sim.run()
    assert sim.trajectory_dedupe_hits == 1
    assert _frozen(results[0]) == _solo_frozen("eager")
    oracle = run_discharge_cycle(
        CapmanPolicy(capacity_mah=CAPACITY_MAH, fallback_threshold_w=0.1),
        _TRACE, profile=NEXUS, control_dt=CONTROL_DT,
        max_duration_s=MAX_DURATION_S)
    assert _frozen(results[1]) == _frozen(oracle)


def test_distinct_profiles_do_not_dedupe():
    sim = FleetSpec([
        _device(VARIANTS["eager"](), profile=NEXUS),
        _device(VARIANTS["eager"](), profile=HONOR),
    ]).build()
    sim.run()
    assert sim.trajectory_dedupe_hits == 0


# ----------------------------------------------------------------------
# Hypothesis properties (ISSUE satellite: permutation + dedupe)
# ----------------------------------------------------------------------
@settings(max_examples=8, deadline=None)
@given(order=st.permutations(sorted(VARIANTS)))
def test_capman_permutation_invariance(order):
    """Row order inside a CAPMAN batch is irrelevant: every row equals
    its solo scalar run regardless of neighbours or position -- even
    with the eager/eager-twin pair deduped into one trajectory."""
    sim = FleetSpec([_device(VARIANTS[name]()) for name in order]).build()
    results = sim.run()
    assert sim.trajectory_dedupe_hits == 1  # eager + eager-twin
    for name, mine in zip(order, results):
        assert _frozen(mine) == _solo_frozen(name), \
            f"{name} diverged at position {order.index(name)}"


@settings(max_examples=6, deadline=None)
@given(clones=st.integers(min_value=1, max_value=4))
def test_dedupe_equals_independent_trajectories(clones):
    """A deduped batch of N clones is indistinguishable from N
    independently learned rows (the scalar runs)."""
    sim = FleetSpec([_device(CapmanPolicy(capacity_mah=CAPACITY_MAH))
                     for _ in range(clones)]).build()
    results = sim.run()
    assert sim.trajectory_dedupe_hits == clones - 1
    for mine in results:
        assert _frozen(mine) == _solo_frozen("eager")


# ----------------------------------------------------------------------
# Sweep integration
# ----------------------------------------------------------------------
def test_sweep_fleet_backend_honours_shards_env():
    """A served-shaped 16-cell sweep takes the in-process fleet batch
    and equals the scalar oracle cell for cell."""
    spec = SweepSpec(
        policies={"capman": CapmanPolicy(capacity_mah=CAPACITY_MAH),
                  "dual": DualPolicy(capacity_mah=CAPACITY_MAH)},
        traces={"video": _TRACE},
        profiles={"Nexus": NEXUS, "Honor": HONOR},
        control_dts=(CONTROL_DT,),
        ambients_c=(25.0, 30.0, 35.0, 40.0),
        max_duration_s=MAX_DURATION_S,
    )
    scalar = ScenarioRunner(executor=LocalProcessExecutor()).run(spec)
    fleet = ScenarioRunner().run(spec)
    assert fleet.stats.cells_fleet == 16
    assert len(fleet.results) == len(scalar.results) == 16
    for mine, theirs in zip(fleet.results, scalar.results):
        assert _frozen(mine) == _frozen(theirs)


# ----------------------------------------------------------------------
# Obs counters
# ----------------------------------------------------------------------
def test_counters_surface_in_obs_registry():
    """With obs enabled, a fleet run exports its driver-mix and CAPMAN
    work counters -- and the results are still bit-identical."""
    obs.configure(enabled=True)
    try:
        sim = FleetSpec([
            _device(VARIANTS["eager"]()),
            _device(VARIANTS["eager-twin"]()),
            _device(DualPolicy(capacity_mah=CAPACITY_MAH)),
        ]).build()
        results = sim.run()
        values = obs.session().registry.counter_values()
    finally:
        obs.disable()

    assert values["fleet.rows_vectorised"] == 3
    assert values["fleet.rows_adapted"] == 0
    assert values["fleet.trajectory_dedupe_hits"] == 1
    assert values["fleet.table_compiles"] == sim.table_compiles >= 1
    assert values["fleet.solve_fallbacks"] == sim.solve_fallbacks == 0
    assert values["fleet.fallback_steps"] == sim.fallback_steps
    for mine in results[:2]:
        assert _frozen(mine) == _solo_frozen("eager")


def test_counters_export_once_per_run():
    """Calling run() twice (second call is a cached no-op loop) must
    not double-export into the registry."""
    obs.configure(enabled=True)
    try:
        sim = FleetSpec([_device(VARIANTS["eager"]())]).build()
        sim.run()
        sim.run()
        values = obs.session().registry.counter_values()
    finally:
        obs.disable()
    assert values["fleet.rows_vectorised"] == 1
