"""Differential harness: observability must be invisible.

Three invariants, each proven differentially rather than asserted:

1. **Byte-identity.**  Over a seeded grid (CAPMAN/Dual x Nexus/Honor x
   faults on/off x journalled on/off) the :class:`DischargeResult` is
   byte-identical -- ``pickle.dumps(invisible_view(r))`` -- whether obs
   is disabled, enabled with the null exporter, or enabled with a JSONL
   exporter.
2. **Zero calls when off.**  With obs disabled the step loop performs
   zero registry/tracer calls (counting stubs) and zero allocations
   attributable to ``repro.obs`` (tracemalloc).
3. **Conservation across execution modes.**  A plain and a journalled,
   checkpointing sweep each merge their cells' telemetry into one blob
   whose step totals equal the results' own step counts.
"""

from __future__ import annotations

import os
import pickle
import tracemalloc

import pytest

from repro import obs
from repro.capman.baselines import DualPolicy
from repro.capman.controller import CapmanPolicy
from repro.device.profiles import HONOR, NEXUS
from repro.durability.snapshot import Checkpointer
from repro.faults.schedule import FaultSchedule, FaultTrigger, TecFault
from repro.faults.supervisor import SupervisedPolicy
from repro.sim.discharge import run_discharge_cycle
from repro.sim.sweep import ScenarioRunner, SweepSpec
from repro.workload.generators import VideoWorkload
from repro.workload.traces import record_trace

CONTROL_DT = 2.0
MAX_DURATION_S = 300.0
_TRACE = record_trace(VideoWorkload(seed=7), duration_s=120.0)

POLICIES = {
    "capman": lambda: CapmanPolicy(capacity_mah=40.0),
    "dual": lambda: DualPolicy(capacity_mah=40.0),
}
PROFILES = {"nexus": NEXUS, "honor": HONOR}


def _fault_schedule() -> FaultSchedule:
    return FaultSchedule(
        faults=(TecFault(trigger=FaultTrigger(start_s=30.0), stuck_off=True),),
        seed=1, name="tec-dead")


def _run_case(policy_key: str, profile_key: str, faulted: bool,
              journalled: bool, tmp_path, tag: str):
    """One grid cell, freshly built (policies are stateful)."""
    policy = POLICIES[policy_key]()
    if faulted:
        policy = SupervisedPolicy(inner=policy, schedule=_fault_schedule())
    checkpointer = None
    if journalled:
        checkpointer = Checkpointer(tmp_path / f"{tag}.ckpt", every_steps=25)
    return run_discharge_cycle(
        policy, _TRACE, profile=PROFILES[profile_key],
        control_dt=CONTROL_DT, max_duration_s=MAX_DURATION_S,
        checkpointer=checkpointer)


def _frozen(result) -> bytes:
    return pickle.dumps(obs.invisible_view(result), protocol=4)


GRID = [
    pytest.param(policy, profile, faulted, journalled,
                 id=f"{policy}-{profile}"
                    f"-{'faults' if faulted else 'clean'}"
                    f"-{'journal' if journalled else 'plain'}")
    for policy in POLICIES
    for profile in PROFILES
    for faulted in (False, True)
    for journalled in (False, True)
]


@pytest.mark.parametrize("policy,profile,faulted,journalled", GRID)
def test_results_byte_identical_across_obs_modes(
        policy, profile, faulted, journalled, tmp_path):
    obs.disable()
    baseline = _run_case(policy, profile, faulted, journalled, tmp_path, "off")
    assert baseline.telemetry is None

    obs.configure(enabled=True)  # null exporter
    quiet = _run_case(policy, profile, faulted, journalled, tmp_path, "null")

    obs.configure(enabled=True,
                  exporter=obs.JsonlExporter(str(tmp_path / "obs.jsonl")))
    loud = _run_case(policy, profile, faulted, journalled, tmp_path, "jsonl")
    obs.disable()

    frozen = _frozen(baseline)
    assert _frozen(quiet) == frozen
    assert _frozen(loud) == frozen

    # The enabled runs did observe: telemetry is present and aligned
    # with the result's own step accounting.
    for observed in (quiet, loud):
        assert observed.telemetry is not None
        assert observed.telemetry.counter("sim.steps") == observed.step_count
        assert observed.telemetry.histograms["sim.step_wall_s"]["count"] \
            == observed.step_count
        assert "discharge" in observed.telemetry.spans

    # The JSONL exporter actually wrote records.
    assert (tmp_path / "obs.jsonl").stat().st_size > 0


# ----------------------------------------------------------------------
# Zero-cost-when-off proofs
# ----------------------------------------------------------------------
def test_disabled_run_makes_zero_registry_or_tracer_calls(
        monkeypatch, tmp_path):
    """Counting stubs on every instrument-creation entry point: the
    disabled path must never reach the registry or the tracer."""
    calls = []

    def _counting(cls, method):
        original = getattr(cls, method)

        def stub(self, *args, **kwargs):
            calls.append(f"{cls.__name__}.{method}")
            return original(self, *args, **kwargs)

        return stub

    for cls, method in ((obs.MetricsRegistry, "counter"),
                        (obs.MetricsRegistry, "gauge"),
                        (obs.MetricsRegistry, "histogram"),
                        (obs.Tracer, "start"),
                        (obs.Tracer, "span")):
        monkeypatch.setattr(cls, method, _counting(cls, method))

    obs.disable()
    _run_case("capman", "nexus", True, True, tmp_path, "stub")
    assert calls == []

    # Sanity: the stubs do fire once obs is enabled.
    obs.configure(enabled=True)
    _run_case("capman", "nexus", False, False, tmp_path, "stub-on")
    obs.disable()
    assert calls != []


def test_disabled_run_allocates_nothing_in_obs(tmp_path):
    """tracemalloc, filtered to ``repro/obs`` source files: the
    disabled step loop must not allocate a single block there."""
    obs_dir = os.path.dirname(obs.__file__)
    obs.disable()
    _run_case("dual", "nexus", False, False, tmp_path, "warm")  # warm caches

    tracemalloc.start()
    try:
        _run_case("dual", "nexus", False, False, tmp_path, "cold")
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()

    stats = snapshot.filter_traces(
        [tracemalloc.Filter(True, os.path.join(obs_dir, "*"))]
    ).statistics("filename")
    assert stats == [], [f"{s.traceback}: {s.size}B" for s in stats]


# ----------------------------------------------------------------------
# Plain / journalled conservation
# ----------------------------------------------------------------------
def _sweep_spec() -> SweepSpec:
    return SweepSpec(
        policies={key: build() for key, build in POLICIES.items()},
        traces={"video": _TRACE},
        profiles={"Nexus": NEXUS},
        control_dts=(CONTROL_DT,),
        max_duration_s=MAX_DURATION_S,
    )


def test_journalled_sweep_merges_one_equal_blob(tmp_path):
    obs.disable()
    plain = ScenarioRunner().run(_sweep_spec())

    obs.configure(enabled=True)
    serial = ScenarioRunner().run(_sweep_spec())

    obs.configure(enabled=True)
    journalled = ScenarioRunner(
        journal=tmp_path / "sweep.journal",
        checkpoint_every_steps=50).run(_sweep_spec())
    obs.disable()

    # Simulated outcomes are identical across all three execution modes.
    for observed in (serial, journalled):
        assert len(observed.results) == len(plain.results)
        for mine, theirs in zip(plain.results, observed.results):
            assert _frozen(mine) == _frozen(theirs)

    # One merged blob per run, conserving per-cell step counts exactly.
    steps = sum(r.step_count for r in plain.results)
    assert steps > 0
    for observed in (serial, journalled):
        assert observed.telemetry is not None
        assert observed.telemetry.kind == "sweep"
        assert observed.telemetry.counter("sim.steps") == steps
        assert observed.telemetry.counter("sweep.steps_total") == steps
        assert observed.telemetry.histograms["sim.step_wall_s"]["count"] \
            == steps

    # The blob rode out-of-band: the results themselves stayed equal.
    assert plain.telemetry is None
