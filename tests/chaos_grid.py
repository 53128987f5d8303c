"""Chaos sweeps: cross fault scenarios with the evaluation grids (test harness).

The evaluation sweeps answer "which policy lasts longest when nothing
breaks".  A chaos sweep asks the production question: *how gracefully
does each policy degrade when the hardware misbehaves?*  It crosses a
set of named :class:`FaultScenario`\\ s with the usual policy x trace
grid (each policy wrapped in a
:class:`~repro.faults.supervisor.SupervisedPolicy`), runs the product
through the crash-proof :class:`~repro.sim.sweep.ScenarioRunner`, and
reports survival/degradation metrics per cell against the nominal
(fault-free) scenario: time-to-empty delta, thermal-violation seconds,
degraded-mode transitions and the structured fault-event counts.

Determinism: scenarios are seeded fault schedules, so a chaos grid is
exactly reproducible (and cacheable) like any other sweep.

Only the chaos tests run the grid, so it lives beside them.  Import it
from a test (``tests/`` is on ``sys.path`` under pytest).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.device.profiles import NEXUS, PhoneProfile
from repro.faults.schedule import FaultSchedule, FaultTrigger, SensorFault, SwitchFault, TecFault
from repro.faults.supervisor import SupervisedPolicy
from repro.sim.discharge import DischargeResult, SchedulingPolicy
from repro.sim.sweep import CellFailure, ScenarioRunner, SweepResult, SweepSpec
from repro.workload.traces import Trace

__all__ = [
    "FaultScenario",
    "NOMINAL_SCENARIO",
    "standard_scenarios",
    "ChaosSpec",
    "ChaosRow",
    "ChaosReport",
    "run_chaos",
]

#: Separator between policy and scenario in the sweep's policy keys.
_KEY_SEP = "@"


@dataclass(frozen=True)
class FaultScenario:
    """A named, seeded fault schedule -- one chaos-grid axis value."""

    name: str
    schedule: FaultSchedule

    def __post_init__(self) -> None:
        if _KEY_SEP in self.name:
            raise ValueError(f"scenario names must not contain {_KEY_SEP!r}")


#: The fault-free reference every chaos grid is scored against.
NOMINAL_SCENARIO = FaultScenario("nominal", FaultSchedule())


def standard_scenarios(start_s: float = 600.0, seed: int = 0) -> List[FaultScenario]:
    """The canonical chaos trio: stuck switch, dead TEC, dropped sensor.

    ``start_s`` delays each fault so the controller first reaches its
    learned steady state, making the degradation visible as a *delta*.
    """
    window = FaultTrigger(start_s=start_s)
    return [
        FaultScenario("switch-stuck", FaultSchedule(
            faults=(SwitchFault(trigger=window, stuck=True),),
            seed=seed, name="switch-stuck")),
        FaultScenario("tec-dead", FaultSchedule(
            faults=(TecFault(trigger=window, stuck_off=True),),
            seed=seed, name="tec-dead")),
        FaultScenario("sensor-dropout", FaultSchedule(
            faults=(
                SensorFault(channel="cpu_temp", trigger=window,
                            dropout_probability=0.7, nan_probability=0.1),
                SensorFault(channel="soc_little", trigger=window,
                            dropout_probability=0.5),
            ),
            seed=seed, name="sensor-dropout")),
    ]


@dataclass
class ChaosSpec:
    """A chaos grid: fault scenarios x policies x traces (x the rest).

    Thin declarative layer over :class:`~repro.sim.sweep.SweepSpec`:
    ``to_sweep`` wraps every policy in a supervised fault harness per
    scenario and mangles the policy axis to ``"<policy>@<scenario>"``.
    The nominal scenario is always included (it is the baseline the
    degradation deltas are computed against).
    """

    policies: Mapping[str, SchedulingPolicy]
    traces: Mapping[str, Trace]
    scenarios: Sequence[FaultScenario] = field(default_factory=standard_scenarios)
    profiles: Mapping[str, PhoneProfile] = field(
        default_factory=lambda: {"Nexus": NEXUS})
    control_dts: Sequence[float] = (2.0,)
    ambients_c: Sequence[float] = (25.0,)
    max_duration_s: float = 3.0 * 3600.0
    record_every: int = 1
    supervise: bool = True

    def all_scenarios(self) -> List[FaultScenario]:
        """The scenario axis with the nominal baseline prepended."""
        scenarios = list(self.scenarios)
        if not any(s.name == NOMINAL_SCENARIO.name for s in scenarios):
            scenarios.insert(0, NOMINAL_SCENARIO)
        return scenarios

    def to_sweep(self) -> SweepSpec:
        """The equivalent plain sweep over supervised policy wrappers."""
        wrapped: Dict[str, SchedulingPolicy] = {}
        for scenario in self.all_scenarios():
            for key, policy in self.policies.items():
                wrapped[f"{key}{_KEY_SEP}{scenario.name}"] = SupervisedPolicy(
                    inner=policy,
                    schedule=scenario.schedule,
                    supervise=self.supervise,
                    name=f"{policy.name}{_KEY_SEP}{scenario.name}",
                )
        return SweepSpec(
            policies=wrapped,
            traces=dict(self.traces),
            profiles=dict(self.profiles),
            control_dts=tuple(self.control_dts),
            ambients_c=tuple(self.ambients_c),
            kind="discharge",
            max_duration_s=self.max_duration_s,
            record_every=self.record_every,
        )


@dataclass(frozen=True)
class ChaosRow:
    """Survival/degradation metrics for one (policy, trace, scenario)."""

    policy: str
    trace: str
    scenario: str
    #: The cell produced a result (nothing raised).
    survived: bool
    service_time_s: float
    #: Time-to-empty delta vs. the nominal scenario (negative = lost life).
    service_delta_s: float
    time_above_threshold_s: float
    #: Thermal-violation delta vs. nominal (positive = ran hotter).
    thermal_delta_s: float
    switch_count: int
    mode_transitions: int
    fault_event_count: int
    final_mode: str
    #: Failure description for non-survivors ("" otherwise).
    error: str = ""


@dataclass
class ChaosReport:
    """All chaos rows plus the underlying sweep result."""

    rows: List[ChaosRow]
    sweep: SweepResult
    #: Observability blob of the underlying sweep (None unless obs is
    #: enabled); out-of-band of the report, excluded from equality.
    telemetry: Optional[obs.RunTelemetry] = field(
        default=None, repr=False, compare=False)

    def row(self, policy: str, trace: str, scenario: str) -> ChaosRow:
        """The unique row for one grid point."""
        for r in self.rows:
            if (r.policy, r.trace, r.scenario) == (policy, trace, scenario):
                return r
        raise KeyError(f"no chaos row for {(policy, trace, scenario)}")

    def by_scenario(self, scenario: str) -> List[ChaosRow]:
        """All rows of one fault scenario."""
        return [r for r in self.rows if r.scenario == scenario]

    @property
    def survival_rate(self) -> float:
        """Fraction of grid cells that produced a result."""
        if not self.rows:
            return 0.0
        return sum(1 for r in self.rows if r.survived) / len(self.rows)

    def summary(self) -> str:
        """A human-readable table of the grid."""
        header = (f"{'policy':<12} {'trace':<10} {'scenario':<16} "
                  f"{'svc[s]':>8} {'dsvc[s]':>9} {'hot[s]':>7} "
                  f"{'modes':>5} {'events':>6}  mode")
        lines = [header, "-" * len(header)]
        for r in self.rows:
            if not r.survived:
                lines.append(
                    f"{r.policy:<12} {r.trace:<10} {r.scenario:<16} "
                    f"{'FAILED':>8}  {r.error}")
                continue
            delta = ("" if math.isnan(r.service_delta_s)
                     else f"{r.service_delta_s:+9.0f}")
            lines.append(
                f"{r.policy:<12} {r.trace:<10} {r.scenario:<16} "
                f"{r.service_time_s:8.0f} {delta:>9} "
                f"{r.time_above_threshold_s:7.1f} "
                f"{r.mode_transitions:5d} {r.fault_event_count:6d}  "
                f"{r.final_mode}")
        return "\n".join(lines)


def run_chaos(spec: ChaosSpec,
              runner: Optional[ScenarioRunner] = None) -> ChaosReport:
    """Execute a chaos grid and score it against the nominal scenario."""
    runner = runner or ScenarioRunner()
    sweep = runner.run(spec.to_sweep())

    # First pass: index the nominal baselines.
    nominal: Dict[Tuple[str, str, str, float, float], DischargeResult] = {}
    for cell, outcome in sweep:
        policy, scenario = cell.policy_key.split(_KEY_SEP, 1)
        if scenario == NOMINAL_SCENARIO.name and not isinstance(outcome, CellFailure):
            nominal[(policy, cell.trace_key, cell.profile_key,
                     cell.control_dt, cell.ambient_c)] = outcome

    rows: List[ChaosRow] = []
    for cell, outcome in sweep:
        policy, scenario = cell.policy_key.split(_KEY_SEP, 1)
        base = nominal.get((policy, cell.trace_key, cell.profile_key,
                            cell.control_dt, cell.ambient_c))
        if isinstance(outcome, CellFailure):
            rows.append(ChaosRow(
                policy=policy, trace=cell.trace_key, scenario=scenario,
                survived=False, service_time_s=float("nan"),
                service_delta_s=float("nan"),
                time_above_threshold_s=float("nan"),
                thermal_delta_s=float("nan"), switch_count=0,
                mode_transitions=0, fault_event_count=0,
                final_mode="unknown", error=str(outcome)))
            continue
        result: DischargeResult = outcome
        delta = (result.service_time_s - base.service_time_s
                 if base is not None else float("nan"))
        thermal_delta = (result.time_above_threshold_s
                         - base.time_above_threshold_s
                         if base is not None else float("nan"))
        rows.append(ChaosRow(
            policy=policy, trace=cell.trace_key, scenario=scenario,
            survived=True,
            service_time_s=result.service_time_s,
            service_delta_s=delta,
            time_above_threshold_s=result.time_above_threshold_s,
            thermal_delta_s=thermal_delta,
            switch_count=result.switch_count,
            mode_transitions=result.mode_transitions,
            fault_event_count=len(result.fault_events),
            final_mode=result.final_mode,
        ))
    return ChaosReport(rows=rows, sweep=sweep, telemetry=sweep.telemetry)
