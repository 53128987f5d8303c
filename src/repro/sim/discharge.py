"""The one-discharge-cycle experiment (paper Figure 12's harness).

``run_discharge_cycle`` replays a workload trace on a phone until the
battery pack can no longer serve demand, letting a scheduling policy
choose the battery each control step and a thermostat drive the TEC.
The returned :class:`DischargeResult` carries everything the paper's
evaluation figures plot: service time, energy, SoC / temperature /
power traces, switch counts and battery activation ratios.
"""

from __future__ import annotations

import abc
import hashlib
import pickle
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .. import obs
from ..battery.pack import BatteryPack, BigLittlePack
from ..battery.switch import BatterySelection
from ..device.phone import DemandSlice, Phone, StepOutcome
from ..device.profiles import NEXUS, PhoneProfile
from ..device.syscalls import Syscall
from ..durability.budget import BudgetExceededError, RunBudget
from ..durability.deadline import poll_deadline
from ..durability.snapshot import Checkpointer, SimCheckpoint
from ..durability.state import StateMismatchError, pack_state, unpack_state
from ..thermal.hotspot import HOT_SPOT_THRESHOLD_C, ThermostatController
from ..thermal.tec import TECUnit
from ..workload.traces import Trace
from .engine import iter_control_steps
from .metrics import MetricsRecorder

__all__ = [
    "PolicyContext",
    "SchedulingPolicy",
    "DischargeResult",
    "run_discharge_cycle",
    "trace_fingerprint",
]


@dataclass(frozen=True)
class PolicyContext:
    """Everything a scheduling policy may observe at a decision point."""

    now_s: float
    demand: DemandSlice
    #: The system call opening this segment (None mid-segment).
    syscall: Optional[Syscall]
    #: The phone's estimate of upcoming electrical demand (W).
    predicted_power_w: float
    cpu_temp_c: float
    surface_temp_c: float
    #: SoCs; for single packs both carry the lone cell's SoC.
    soc_big: float
    soc_little: float
    active: BatterySelection
    #: True on the first control step of a workload segment.
    segment_start: bool


class SchedulingPolicy(abc.ABC):
    """A battery-scheduling policy under evaluation.

    Subclasses supply the pack they run on (so ``Practice`` can use a
    single battery), whether they operate a TEC, and the per-step
    battery decision.
    """

    name: str = "policy"
    #: Whether the harness runs the 45 degC thermostat + TEC for us.
    uses_tec: bool = False

    @abc.abstractmethod
    def build_pack(self) -> BatteryPack:
        """A fresh pack for a new discharge cycle."""

    def on_cycle_start(self, trace: Trace, phone: Phone) -> None:
        """Hook before the first step (Oracle studies the trace here)."""

    @abc.abstractmethod
    def decide_battery(self, ctx: PolicyContext) -> Optional[BatterySelection]:
        """The battery to use next; None keeps the current selection."""

    def filter_demand(self, demand: DemandSlice, ctx: PolicyContext) -> DemandSlice:
        """Optionally rewrite the demand before it hits the plant.

        The default is the identity; a supervised policy in thermal
        fallback overrides this to frequency-throttle the workload.
        The harness only calls the hook when it is overridden, so
        ordinary policies pay nothing.
        """
        return demand

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    _STATE_VERSION = 1

    def state_dict(self) -> dict:
        """Default: pickle the whole instance ``__dict__``.

        Works for any policy whose attributes are plain data (the
        CAPMAN controller, the baselines, Oracle's trace digest).
        Policies holding live plant references (the supervised wrapper)
        must override with a hand-picked payload.
        """
        blob = pickle.dumps(self.__dict__, protocol=4)
        return pack_state(self, self._STATE_VERSION, {"pickle": blob})

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` in place (identity preserved)."""
        payload = unpack_state(self, state, self._STATE_VERSION)
        self.__dict__.update(pickle.loads(payload["pickle"]))


@dataclass
class DischargeResult:
    """Measured outcome of one discharge cycle."""

    policy_name: str
    workload_name: str
    #: How long the phone kept serving demand (s) -- the headline metric.
    service_time_s: float
    #: Total energy delivered to the load (J).
    energy_delivered_j: float
    #: Battery switch events committed.
    switch_count: int
    #: Activation time per battery (s).
    big_time_s: float
    little_time_s: float
    #: TEC bookkeeping.
    tec_on_time_s: float
    tec_energy_j: float
    #: Thermal summary.
    max_cpu_temp_c: float
    time_above_threshold_s: float
    #: Recorded traces (downsampled): soc, cpu_temp, power, voltage.
    metrics: MetricsRecorder = field(repr=False, default_factory=MetricsRecorder)
    #: Control steps executed (throughput accounting).
    step_count: int = 0
    #: Wall-clock time spent inside the cycle loop (s).
    wall_time_s: float = 0.0
    #: Structured fault/recovery events (supervised policies only).
    fault_events: Tuple = ()
    #: Degraded mode at end of cycle ("normal" when unsupervised).
    final_mode: str = "normal"
    #: Degraded-mode transitions over the cycle.
    mode_transitions: int = 0
    #: Observability blob (populated only while ``obs`` is enabled).
    #: Out-of-band of the simulated outcome: excluded from equality and
    #: repr, stripped by :func:`repro.obs.invisible_view`.
    telemetry: Optional[obs.RunTelemetry] = field(
        default=None, repr=False, compare=False)

    @property
    def mean_power_w(self) -> float:
        """Average delivered power over the cycle (W)."""
        if self.service_time_s <= 0:
            return 0.0
        return self.energy_delivered_j / self.service_time_s

    @property
    def little_ratio(self) -> float:
        """LITTLE activation share of total battery time (Figure 14 x-axis)."""
        total = self.big_time_s + self.little_time_s
        return self.little_time_s / total if total > 0 else 0.0


def trace_fingerprint(trace: Trace) -> str:
    """A content hash of a trace's segments (for checkpoint matching).

    Segments are frozen dataclasses with deterministic ``repr``, so the
    digest identifies the exact demand sequence without pulling the
    sweep engine's canonicaliser into this layer.
    """
    h = hashlib.sha256()
    for seg in trace:
        h.update(repr((seg.demand, seg.duration_s, seg.syscall)).encode())
    return h.hexdigest()[:16]


def _cycle_fingerprint(policy, trace, profile, control_dt, max_duration_s,
                       ambient_c, tec_threshold_c, record_every,
                       brownout_limit) -> str:
    """Fingerprint of everything that must match for a resume."""
    data = (
        type(policy).__qualname__, policy.name,
        trace.name, trace_fingerprint(trace),
        getattr(profile, "name", repr(profile)),
        control_dt, max_duration_s, ambient_c, tec_threshold_c,
        record_every, brownout_limit,
    )
    return hashlib.sha256(repr(data).encode()).hexdigest()[:16]


def run_discharge_cycle(
    policy: SchedulingPolicy,
    trace: Trace,
    profile: PhoneProfile = NEXUS,
    control_dt: float = 1.0,
    max_duration_s: float = 3.0 * 3600.0,
    ambient_c: float = 25.0,
    tec_threshold_c: float = HOT_SPOT_THRESHOLD_C,
    record_every: int = 1,
    brownout_limit: int = 3,
    checkpointer: Optional[Checkpointer] = None,
    resume_from: Optional[SimCheckpoint] = None,
    budget: Optional[RunBudget] = None,
) -> DischargeResult:
    """Drive one full discharge cycle of ``policy`` over ``trace``.

    The trace loops until the pack can no longer serve demand or
    ``max_duration_s`` elapses.  A *brownout* is a control step whose
    delivered energy falls measurably short of demand (the supply rail
    collapsed mid-step); after ``brownout_limit`` brownouts the phone
    is dead and the cycle ends -- a pack cannot inflate its service
    time by limping along on partial service.  ``record_every`` thins
    metric recording for long runs.

    Durability (all optional, all off by default):

    * ``checkpointer`` saves a full-state :class:`SimCheckpoint` every
      ``every_steps`` control steps.
    * ``resume_from`` restores such a checkpoint and continues; the
      run configuration must fingerprint-match the one that produced
      it, and the continued run is bit-identical to the uninterrupted
      one.
    * ``budget`` is polled at the top of each step (a consistent state
      point); blowing it raises :class:`BudgetExceededError` carrying
      a final clean checkpoint instead of dying to a timeout kill.
    """
    wall_start = time.perf_counter()
    # Observability: hoist the session check to one local boolean so the
    # disabled (default) path costs a single truth test per guard and
    # performs zero registry/tracer calls in the step loop.
    ob = obs.session()
    observing = ob is not None
    if observing:
        scope = ob.scope("discharge", f"{policy.name}:{trace.name}")
        cycle_span = ob.tracer.start("discharge", policy=policy.name,
                                     trace=trace.name)
        _obs_clock = time.monotonic
        _obs_step = scope.registry.histogram("sim.step_wall_s").observe
    pack = policy.build_pack()
    phone = Phone(profile=profile, pack=pack, ambient_c=ambient_c)
    thermostat = ThermostatController(threshold_c=tec_threshold_c)
    metrics = MetricsRecorder()
    policy.on_cycle_start(trace, phone)

    def looped_segments():
        while True:
            for seg in trace:
                yield seg

    service_time = 0.0
    energy = 0.0
    big_time = 0.0
    little_time = 0.0
    hot_time = 0.0
    max_temp = ambient_c
    step_index = 0
    brownouts = 0

    durable = (checkpointer is not None or resume_from is not None
               or budget is not None)
    fingerprint = ""
    if durable:
        fingerprint = _cycle_fingerprint(
            policy, trace, profile, control_dt, max_duration_s, ambient_c,
            tec_threshold_c, record_every, brownout_limit)

    def _make_checkpoint() -> SimCheckpoint:
        return SimCheckpoint.create("discharge", {
            "fingerprint": fingerprint,
            "step_index": step_index,
            "service_time": service_time,
            "energy": energy,
            "big_time": big_time,
            "little_time": little_time,
            "hot_time": hot_time,
            "max_temp": max_temp,
            "brownouts": brownouts,
            "policy": policy.state_dict(),
            "phone": phone.state_dict(),
            "thermostat": thermostat.state_dict(),
            "metrics": metrics.state_dict(),
        })

    if resume_from is not None:
        resume_from.verify()
        if resume_from.kind != "discharge":
            raise StateMismatchError(
                f"checkpoint kind {resume_from.kind!r} is not a discharge "
                f"checkpoint")
        saved = resume_from.payload
        if saved["fingerprint"] != fingerprint:
            raise StateMismatchError(
                "checkpoint was taken under a different run configuration "
                f"({saved['fingerprint']} vs {fingerprint})")
        # Restore order matters: the policy first (on_cycle_start has
        # already rewired any fault plumbing it owns), then the plant.
        policy.load_state_dict(saved["policy"])
        phone.load_state_dict(saved["phone"])
        thermostat.load_state_dict(saved["thermostat"])
        metrics.load_state_dict(saved["metrics"])
        service_time = saved["service_time"]
        energy = saved["energy"]
        big_time = saved["big_time"]
        little_time = saved["little_time"]
        hot_time = saved["hot_time"]
        max_temp = saved["max_temp"]
        brownouts = saved["brownouts"]
        step_index = saved["step_index"]
        if budget is not None:
            budget.restart()  # fresh wall budget; steps carry over
    resume_step0 = step_index

    # Hot-loop hoists: bind per-step callables and constants once.  A
    # day-long trace at 1 s steps runs this loop ~10^5 times, and the
    # attribute chains below would otherwise be re-resolved each step.
    predict_power = phone.demand_power_w
    decide = policy.decide_battery
    uses_tec = policy.uses_tec
    select_battery = phone.select_battery
    set_tec = phone.set_tec
    thermostat_update = thermostat.update
    phone_step = phone.step
    filter_demand = (
        policy.filter_demand
        if type(policy).filter_demand is not SchedulingPolicy.filter_demand
        else None
    )
    record = metrics.record
    thermal_temperature = phone.thermal.temperature
    big_sel = BatterySelection.BIG
    little_sel = BatterySelection.LITTLE
    dual = isinstance(pack, BigLittlePack)
    if dual:
        big_cell, little_cell = pack.big, pack.little
        active_of = lambda: pack.active

    steps = iter_control_steps(looped_segments(), control_dt, max_duration_s)
    if step_index:
        # Fast-forward the pure slicing iterator past the completed
        # steps; no physics runs here, so this is cheap and exact.
        for _ in range(step_index):
            if next(steps, None) is None:
                break

    telemetry: Optional[obs.RunTelemetry] = None
    try:
        for step in steps:
            if observing:
                _step_t0 = _obs_clock()
            # Durability hooks live at the top of the step, where the
            # state is consistent (== the end of the previous step).
            poll_deadline()
            if durable:
                if budget is not None:
                    reason = budget.exceeded(step_index)
                    if reason is not None:
                        ckpt = _make_checkpoint()
                        if checkpointer is not None:
                            checkpointer.save(ckpt)
                        raise BudgetExceededError(reason, ckpt)
                if checkpointer is not None and checkpointer.due(step_index):
                    checkpointer.save(_make_checkpoint())

            demand = step.segment.demand
            if dual:
                soc_big = big_cell.state_of_charge
                soc_little = little_cell.state_of_charge
                active = active_of() or big_sel
            else:
                soc_big = soc_little = pack.state_of_charge
                active = big_sel
            cpu_temp = thermal_temperature("cpu")
            ctx = PolicyContext(
                now_s=step.start_s,
                demand=demand,
                syscall=step.syscall,
                predicted_power_w=predict_power(demand),
                cpu_temp_c=cpu_temp,
                surface_temp_c=thermal_temperature("surface"),
                soc_big=soc_big,
                soc_little=soc_little,
                active=active,
                segment_start=step.segment_start,
            )

            choice = decide(ctx)
            if choice is not None:
                select_battery(choice)
            if uses_tec:
                set_tec(thermostat_update(cpu_temp, step.start_s))
            if filter_demand is not None:
                demand = filter_demand(demand, ctx)

            outcome: StepOutcome = phone_step(demand, step.dt)

            energy += outcome.energy_j
            if outcome.served_by is big_sel:
                big_time += step.dt
            elif outcome.served_by is little_sel:
                little_time += step.dt
            if outcome.cpu_temp_c > max_temp:
                max_temp = outcome.cpu_temp_c
            if outcome.cpu_temp_c >= tec_threshold_c:
                hot_time += step.dt

            step_index += 1
            if observing:
                _obs_step(_obs_clock() - _step_t0)
            if step_index % record_every == 0:
                t = step.start_s + step.dt
                record("soc", t, pack.state_of_charge)
                record("cpu_temp_c", t, outcome.cpu_temp_c)
                record("power_w", t, outcome.demand_w)
                record("voltage_v", t, outcome.voltage_v)

            service_time = step.start_s + step.dt
            if outcome.shortfall and pack.depleted:
                break
            demanded_j = outcome.demand_w * step.dt
            if demanded_j > 0 and outcome.energy_j < demanded_j * 0.98:
                brownouts += 1
                if brownouts >= brownout_limit:
                    break
    finally:
        # Harvest telemetry in the finally so a budget/deadline abort
        # still closes the scope (keeping the session stack sound) and
        # the success path below sees ``telemetry`` already bound.
        if observing:
            cycle_span.annotate(steps=step_index)
            cycle_span.finish()
            reg = scope.registry
            reg.counter("sim.steps").inc(step_index - resume_step0)
            if brownouts:
                reg.counter("sim.brownouts").inc(brownouts)
            reg.gauge("sim.max_cpu_temp_c").set(max_temp)
            telemetry = scope.telemetry()
            scope.close()
            ob.export_telemetry(telemetry)

    switch_count = pack.switch.switch_count if dual else 0
    tec: TECUnit = phone.tec
    fault_events: Tuple = ()
    final_mode = "normal"
    mode_transitions = 0
    reporter = getattr(policy, "fault_report", None)
    if callable(reporter):
        report = reporter()
        fault_events = tuple(report.get("events", ()))
        final_mode = str(report.get("mode", "normal"))
        mode_transitions = int(report.get("mode_transitions", 0))
    return DischargeResult(
        policy_name=policy.name,
        workload_name=trace.name,
        service_time_s=service_time,
        energy_delivered_j=energy,
        switch_count=switch_count,
        big_time_s=big_time,
        little_time_s=little_time,
        tec_on_time_s=tec.on_time_s,
        tec_energy_j=tec.energy_used_j,
        max_cpu_temp_c=max_temp,
        time_above_threshold_s=hot_time,
        metrics=metrics,
        step_count=step_index,
        wall_time_s=time.perf_counter() - wall_start,
        fault_events=fault_events,
        final_mode=final_mode,
        mode_transitions=mode_transitions,
        telemetry=telemetry,
    )


def _pack_socs(pack: BatteryPack) -> Tuple[float, float]:
    if isinstance(pack, BigLittlePack):
        return pack.big.state_of_charge, pack.little.state_of_charge
    soc = pack.state_of_charge
    return soc, soc
