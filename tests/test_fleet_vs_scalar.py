"""Differential harness: the fleet batch vs the scalar oracle.

The contract is *bit-for-bit*, not approximate: a fleet of one must
reproduce :func:`repro.sim.discharge.run_discharge_cycle` exactly --
``pickle.dumps`` equality on the whole :class:`DischargeResult`
(wall-clock and telemetry masked, everything else compared byte for
byte, including every metrics sample).  The same holds for every row
of a heterogeneous batch, and for sweeps the runner routes onto the
fleet engine.
"""

from __future__ import annotations

import dataclasses
import pickle
import sys

import pytest

from repro.battery.cell import Cell
from repro.battery.chemistry import LCO, pick_big_little
from repro.battery.pack import BigLittlePack, SingleBatteryPack
from repro.battery.supercap import Supercapacitor
from repro.battery.switch import BatterySwitch
from repro.capman.baselines import DualPolicy, HeuristicPolicy, PracticePolicy
from repro.capman.controller import CapmanPolicy
from repro.device.profiles import HONOR, LENOVO, NEXUS
from repro.fleet import (DeviceSpec, FleetSpec, UnsupportedDeviceError,
                         unsupported_reason)
from repro.sim.discharge import run_discharge_cycle
from repro.sim import sweep
from repro.sim.sweep import ScenarioRunner, SweepSpec
from repro.workload.generators import VideoWorkload
from repro.workload.traces import record_trace

CONTROL_DT = 2.0
MAX_DURATION_S = 300.0
#: 40 mAh cells over a 120 s looped video trace: the pack depletes
#: inside the window, so the grid exercises partial serves, mid-step
#: failovers and death -- the fleet's irregular-row fallback path.
CAPACITY_MAH = 40.0
_TRACE = record_trace(VideoWorkload(seed=7), duration_s=120.0)

POLICIES = {
    "capman": lambda: CapmanPolicy(capacity_mah=CAPACITY_MAH),
    # Tight learning cadence at a surviving capacity: the window packs
    # many replan boundaries (first model after 3 observations, then a
    # re-solve every 5), so the compiled-table epoch machinery is
    # exercised well beyond the single warmup solve.
    "capman-replan": lambda: CapmanPolicy(capacity_mah=400.0,
                                          min_observations=3,
                                          replan_interval=5),
    "dual": lambda: DualPolicy(capacity_mah=CAPACITY_MAH),
    "heuristic": lambda: HeuristicPolicy(capacity_mah=CAPACITY_MAH),
}
PROFILES = {"nexus": NEXUS, "honor": HONOR}


def _frozen(result) -> bytes:
    """Byte-stable view: mask wall clock + telemetry, keep the rest."""
    return pickle.dumps(
        dataclasses.replace(result, wall_time_s=0.0, telemetry=None),
        protocol=4)


def _scalar(policy_key: str, profile_key: str):
    return run_discharge_cycle(
        POLICIES[policy_key](), _TRACE, profile=PROFILES[profile_key],
        control_dt=CONTROL_DT, max_duration_s=MAX_DURATION_S)


def _device(policy_key: str, profile_key: str) -> DeviceSpec:
    return DeviceSpec(
        policy=POLICIES[policy_key](), trace=_TRACE,
        profile=PROFILES[profile_key], control_dt=CONTROL_DT,
        max_duration_s=MAX_DURATION_S)


GRID = [
    pytest.param(policy, profile, id=f"{policy}-{profile}")
    for policy in POLICIES for profile in PROFILES
]


@pytest.mark.parametrize("policy,profile", GRID)
def test_batch_of_one_is_bit_identical_to_scalar(policy, profile):
    oracle = _scalar(policy, profile)
    sim = FleetSpec([_device(policy, profile)]).build()
    [mine] = sim.run()

    assert _frozen(mine) == _frozen(oracle)

    # Spot-check the fields the pickle equality already implies, so a
    # future divergence produces a readable failure instead of a blob
    # mismatch.
    assert mine.step_count == oracle.step_count
    assert mine.service_time_s == oracle.service_time_s
    assert mine.energy_delivered_j == oracle.energy_delivered_j
    assert mine.switch_count == oracle.switch_count
    assert mine.max_cpu_temp_c == oracle.max_cpu_temp_c
    for key in ("soc", "cpu_temp_c", "power_w", "voltage_v"):
        assert mine.metrics.series(key).times.tolist() == \
            oracle.metrics.series(key).times.tolist()
        assert mine.metrics.series(key).values.tolist() == \
            oracle.metrics.series(key).values.tolist()


def test_heterogeneous_batch_matches_scalar_rowwise():
    """One batch mixing both policies and both profiles: every row must
    still equal its own scalar run exactly."""
    cases = [(p, pr) for p in POLICIES for pr in PROFILES]
    sim = FleetSpec([_device(p, pr) for p, pr in cases]).build()
    results = sim.run()
    assert len(results) == len(cases)
    for (policy, profile), mine in zip(cases, results):
        assert _frozen(mine) == _frozen(_scalar(policy, profile)), \
            f"{policy}-{profile} diverged inside the batch"


def test_capman_hot_spot_lean_matches_scalar():
    """A 43 degC ambient drives the CPU past the 45 degC hot-spot
    threshold, so the vectorised LITTLE-lean mask must fire -- and the
    whole decision chain must still match the scalar oracle exactly."""
    oracle = run_discharge_cycle(
        CapmanPolicy(capacity_mah=400.0), _TRACE, profile=NEXUS,
        control_dt=CONTROL_DT, max_duration_s=MAX_DURATION_S,
        ambient_c=43.0)
    # The scenario genuinely reaches the hot-spot regime.
    assert oracle.max_cpu_temp_c >= 45.0
    sim = FleetSpec([DeviceSpec(
        policy=CapmanPolicy(capacity_mah=400.0), trace=_TRACE,
        profile=NEXUS, control_dt=CONTROL_DT,
        max_duration_s=MAX_DURATION_S, ambient_c=43.0)]).build()
    [mine] = sim.run()
    assert _frozen(mine) == _frozen(oracle)


# ----------------------------------------------------------------------
# Single-battery (Practice) rows
# ----------------------------------------------------------------------
#: A Practice pack that lives through the whole 300 s window.
PRACTICE_MAH = 400.0


def _practice_device(profile, capacity_mah=PRACTICE_MAH,
                     max_duration_s=MAX_DURATION_S) -> DeviceSpec:
    return DeviceSpec(policy=PracticePolicy(capacity_mah=capacity_mah),
                      trace=_TRACE, profile=profile, control_dt=CONTROL_DT,
                      max_duration_s=max_duration_s)


def _practice_scalar(profile, capacity_mah=PRACTICE_MAH,
                     max_duration_s=MAX_DURATION_S):
    return run_discharge_cycle(
        PracticePolicy(capacity_mah=capacity_mah), _TRACE, profile=profile,
        control_dt=CONTROL_DT, max_duration_s=max_duration_s)


@pytest.mark.parametrize("profile", [NEXUS, HONOR, LENOVO],
                         ids=lambda profile: profile.name)
def test_practice_batch_of_one_is_bit_identical_to_scalar(profile):
    oracle = _practice_scalar(profile)
    [mine] = FleetSpec([_practice_device(profile)]).build().run()
    assert _frozen(mine) == _frozen(oracle)
    assert mine.switch_count == 0
    assert mine.big_time_s == mine.little_time_s == 0.0


def test_mixed_practice_and_big_little_batch_matches_scalar_rowwise():
    """Practice rows (one surviving, one browning out at 2x the small
    cell) share a batch with Dual, Heuristic and CAPMAN rows."""
    devices = [_practice_device(NEXUS), _device("dual", "nexus"),
               _practice_device(HONOR, capacity_mah=2 * CAPACITY_MAH),
               _device("heuristic", "honor"), _device("capman", "nexus"),
               _practice_device(LENOVO)]
    oracles = [_practice_scalar(NEXUS), _scalar("dual", "nexus"),
               _practice_scalar(HONOR, capacity_mah=2 * CAPACITY_MAH),
               _scalar("heuristic", "honor"), _scalar("capman", "nexus"),
               _practice_scalar(LENOVO)]
    results = FleetSpec(devices).build().run()
    for slot, (mine, oracle) in enumerate(zip(results, oracles)):
        assert _frozen(mine) == _frozen(oracle), f"row {slot} diverged"


def test_practice_depletion_takes_the_partial_draw_replay():
    """Over a 1200 s window the 400 mAh Practice cell runs dry mid-step:
    the row replays through its single-pack Phone and still matches."""
    sim = FleetSpec([_practice_device(NEXUS, max_duration_s=1200.0)]).build()
    [mine] = sim.run()
    oracle = _practice_scalar(NEXUS, max_duration_s=1200.0)
    assert sim.fallback_steps > 0
    assert mine.service_time_s < 1200.0
    assert _frozen(mine) == _frozen(oracle)


def test_depletion_stress_exercises_fallback_rows():
    """The dual cases deplete mid-window; the simulator must have taken
    its object-replay fallback path at least once and still matched."""
    sim = FleetSpec([_device("dual", "nexus"), _device("dual", "honor")]).build()
    results = sim.run()
    assert sim.fallback_steps > 0
    for profile, mine in zip(PROFILES, results):
        assert _frozen(mine) == _frozen(_scalar("dual", profile))


# ----------------------------------------------------------------------
# Mask-guarded branches
# ----------------------------------------------------------------------
@dataclasses.dataclass
class _NearEmptyLittleDual(DualPolicy):
    """Dual over a 100 mAh LITTLE cell at 6% charge.

    Dual keeps selecting LITTLE while its SoC is above 2%, the cell
    often cannot serve the step, so the pack fails over to BIG and the
    next step selects LITTLE again: frequent switches, pre-draw
    failovers and, as the cell runs dry, partial-dt draws.
    """

    name: str = "NearEmptyLittleDual"

    def build_pack(self):
        big, little = pick_big_little()
        return BigLittlePack(big=Cell(big, self.capacity_mah),
                             little=Cell(little, 100.0, soc=0.06),
                             switch=BatterySwitch(),
                             supercap=Supercapacitor())


def test_guarded_branches_match_scalar_taken_and_skipped():
    """Each branch the step skips on an empty mask runs on some steps
    and is skipped on others, and every row still equals its scalar
    run: a 43 degC CAPMAN row turns the TEC on, the near-empty LITTLE
    row switches and fails over, the 40 mAh Dual row takes deficit
    failovers and partial-dt replays, and a 5 mAh Dual row browns out
    three times and dies."""
    cases = [
        (lambda: CapmanPolicy(capacity_mah=400.0), NEXUS, 43.0),
        (lambda: _NearEmptyLittleDual(capacity_mah=400.0), NEXUS, 25.0),
        (lambda: DualPolicy(capacity_mah=CAPACITY_MAH), HONOR, 25.0),
        (lambda: DualPolicy(capacity_mah=5.0), NEXUS, 25.0),
    ]
    sim = FleetSpec([
        DeviceSpec(policy=make(), trace=_TRACE, profile=profile,
                   control_dt=CONTROL_DT, max_duration_s=MAX_DURATION_S,
                   ambient_c=ambient)
        for make, profile, ambient in cases]).build()
    results = sim.run()
    for branch in ("select", "predraw_failover", "deficit_failover", "tec",
                   "brownout"):
        assert 0 < sim.branch_steps[branch] < sim.max_steps, branch
    assert sim.fallback_steps > 0
    assert results[1].switch_count > 50
    assert results[3].step_count == 3
    for (make, profile, ambient), mine in zip(cases, results):
        oracle = run_discharge_cycle(
            make(), _TRACE, profile=profile, control_dt=CONTROL_DT,
            max_duration_s=MAX_DURATION_S, ambient_c=ambient)
        assert _frozen(mine) == _frozen(oracle), mine.policy_name


# ----------------------------------------------------------------------
# Capability gate
# ----------------------------------------------------------------------
class _TaggedCell(Cell):
    """A cell subclass: the fleet cannot vouch for its physics."""


@dataclasses.dataclass
class _TaggedCellPractice(PracticePolicy):
    name: str = "TaggedPractice"

    def build_pack(self):
        return SingleBatteryPack(cell=_TaggedCell(LCO, self.capacity_mah))


def test_unsupported_pack_raises_at_build_time():
    dev = DeviceSpec(policy=_TaggedCellPractice(capacity_mah=80.0),
                     trace=_TRACE, control_dt=CONTROL_DT,
                     max_duration_s=MAX_DURATION_S)
    with pytest.raises(UnsupportedDeviceError, match="custom cell subclass"):
        FleetSpec([dev]).build()


def test_supports_policy_probe():
    assert unsupported_reason(DualPolicy(capacity_mah=CAPACITY_MAH)) is None
    assert unsupported_reason(CapmanPolicy(capacity_mah=CAPACITY_MAH)) is None
    assert unsupported_reason(HeuristicPolicy(capacity_mah=CAPACITY_MAH)) is None
    assert unsupported_reason(PracticePolicy(capacity_mah=80.0)) is None
    assert unsupported_reason(_TaggedCellPractice(capacity_mah=80.0)) is not None
    assert unsupported_reason(_TaggedCellPractice(capacity_mah=80.0)) == \
        "custom cell subclass"


def test_build_does_not_mutate_caller_policies():
    """FleetSpec clones policies; the caller's instances stay pristine
    and reusable for a scalar reference run afterwards."""
    policy = CapmanPolicy(capacity_mah=CAPACITY_MAH)
    before = pickle.dumps(policy, protocol=4)
    FleetSpec([DeviceSpec(policy=policy, trace=_TRACE,
                          control_dt=CONTROL_DT,
                          max_duration_s=MAX_DURATION_S)]).build().run()
    assert pickle.dumps(policy, protocol=4) == before


# ----------------------------------------------------------------------
# Sweep routing
# ----------------------------------------------------------------------
def _sweep_spec() -> SweepSpec:
    return SweepSpec(
        policies={
            "capman": CapmanPolicy(capacity_mah=CAPACITY_MAH),
            "dual": DualPolicy(capacity_mah=CAPACITY_MAH),
            "heuristic": HeuristicPolicy(capacity_mah=CAPACITY_MAH),
            "capman-replan": POLICIES["capman-replan"](),
            # Single-battery pack: joins the same fleet batch.
            "practice": PracticePolicy(capacity_mah=2 * CAPACITY_MAH),
        },
        traces={"video": _TRACE},
        profiles={"Nexus": NEXUS, "Honor": HONOR},
        control_dts=(CONTROL_DT,),
        ambients_c=(25.0, 35.0),
        max_duration_s=MAX_DURATION_S,
    )


def test_sweep_fleet_backend_matches_scalar_backend():
    """The default in-process runner batches all 20 cells, Practice
    included; with ``FLEET_MIN_ROWS`` out of reach every cell runs on
    the scalar engine."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweep, "FLEET_MIN_ROWS", sys.maxsize)  # scalar only
        scalar = ScenarioRunner().run(_sweep_spec())
    fleet = ScenarioRunner().run(_sweep_spec())

    assert len(fleet.results) == len(scalar.results) == 20
    assert (scalar.stats.cells_fleet, fleet.stats.cells_fleet) == (0, 20)
    for mine, theirs in zip(fleet.results, scalar.results):
        assert _frozen(mine) == _frozen(theirs)
    assert fleet.stats.cells_computed == scalar.stats.cells_computed
    assert fleet.stats.steps_total == scalar.stats.steps_total
