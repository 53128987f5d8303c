"""Supervised degraded-mode control.

The paper's actuator is real hardware -- a comparator/MOSFET battery
switch and a TEC driven off a 45 degC trigger -- and real hardware
fails.  This module adds the defensive layer a deployment needs:

* :class:`SensorGuard` -- range / rate-of-change / NaN sanity checks
  on every reading the controller consumes, with last-good-value
  substitution, so one frozen or sparking sensor cannot steer the
  scheduler off a cliff;
* :class:`Supervisor` -- compares commanded vs. observed actuator
  state with a bounded retry-then-fallback policy and degrades into
  explicit modes: **single-battery safe mode** when the switch stops
  honouring requests, **frequency-throttle thermal fallback** when the
  TEC is commanded on but the hot spot keeps climbing.  Every
  transition lands on the shared event log as a structured
  :class:`~repro.faults.events.FaultEvent` / ``RecoveryEvent``;
* :class:`SupervisedPolicy` -- wraps any
  :class:`~repro.sim.discharge.SchedulingPolicy` with a fault schedule
  plus supervision, so the whole stack (sweep engine, chaos grids)
  runs faulty scenarios through the unchanged harness.

Mode state machine (see DESIGN.md section 8)::

    NORMAL --switch mismatches >= retry_limit--> SINGLE_BATTERY
    NORMAL --tec strikes >= strike_limit------> THERMAL_FALLBACK
    (both at once => SAFE)
    SINGLE_BATTERY --probe switch succeeds----> NORMAL   (RecoveryEvent)
    THERMAL_FALLBACK --tec observed working---> NORMAL   (RecoveryEvent)
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from .. import obs
from ..battery.pack import BatteryPack, BigLittlePack
from ..battery.switch import BatterySelection
from ..device.phone import DemandSlice, Phone
from ..durability.state import pack_state, unpack_state
from ..sim.discharge import PolicyContext, SchedulingPolicy
from ..workload.traces import Trace
from .events import EventLog
from .injectors import FaultyBatterySwitch, FaultyCell, FaultyTEC, tap_map
from .schedule import (
    CellFault,
    FaultSchedule,
    ScheduleRuntime,
    SwitchFault,
    TecFault,
)

__all__ = [
    "SupervisorConfig",
    "SensorGuard",
    "Supervisor",
    "SupervisedPolicy",
    "MODE_NORMAL",
    "MODE_SINGLE_BATTERY",
    "MODE_THERMAL_FALLBACK",
    "MODE_SAFE",
]

MODE_NORMAL = "normal"
MODE_SINGLE_BATTERY = "single-battery"
MODE_THERMAL_FALLBACK = "thermal-fallback"
#: Both actuators distrusted at once.
MODE_SAFE = "safe"


@dataclass(frozen=True)
class SupervisorConfig:
    """Tunables of the supervision layer."""

    #: Plausible temperature window (degC) for thermal channels.
    temp_range_c: Tuple[float, float] = (-20.0, 130.0)
    #: Largest credible temperature slew (K/s).
    temp_max_rate_c_per_s: float = 10.0
    #: Largest credible SoC slew (fraction/s).
    soc_max_rate_per_s: float = 0.05
    #: Consecutive unhonoured switch requests before single-battery mode.
    switch_retry_limit: int = 3
    #: Seconds between switch probes while in single-battery mode.
    switch_probe_interval_s: float = 120.0
    #: Consecutive TEC strikes before thermal fallback.
    tec_strike_limit: int = 3
    #: Seconds of commanded-on cooling with a still-rising hot spot
    #: before the TEC is declared ineffective.
    tec_check_window_s: float = 60.0
    #: Temperature rise (K) over the check window that counts as a strike.
    tec_temp_rise_margin_c: float = 2.0
    #: Hot-spot line the thermal fallback defends (degC).
    hot_threshold_c: float = 45.0
    #: Throttle caps applied while in thermal fallback.
    throttle_freq_index: int = 0
    throttle_cpu_util: float = 60.0


class SensorGuard:
    """Range / rate / NaN guard for one sensor channel.

    Bad readings are replaced by the last good value (or clamped into
    range when no good value exists yet); the bad-streak start and the
    recovery are logged, not every bad sample.
    """

    def __init__(self, name: str, lo: float, hi: float,
                 max_rate_per_s: float, log: EventLog) -> None:
        self.name = name
        self.lo = lo
        self.hi = hi
        self.max_rate_per_s = max_rate_per_s
        self.log = log
        self._last_good: Optional[float] = None
        self._last_time: Optional[float] = None
        self._bad = False
        #: Samples rejected over the guard's life.
        self.rejected = 0

    def _plausible(self, value: float, now_s: float) -> bool:
        if not math.isfinite(value):
            return False
        if not self.lo <= value <= self.hi:
            return False
        if self._last_good is not None and self._last_time is not None:
            dt = now_s - self._last_time
            if dt > 0 and abs(value - self._last_good) / dt > self.max_rate_per_s:
                return False
        return True

    def clean(self, value: float, now_s: float) -> float:
        """The sanitized reading (the input when plausible)."""
        if self._plausible(value, now_s):
            if self._bad:
                self.log.record_recovery(
                    now_s, f"sensor:{self.name}", "reading-plausible")
                self._bad = False
            self._last_good = value
            self._last_time = now_s
            return value
        self.rejected += 1
        ob = obs.session()
        if ob is not None:
            ob.registry.counter("supervisor.sensor_rejects").inc()
        if not self._bad:
            self.log.record_fault(
                now_s, f"sensor:{self.name}", "implausible-reading",
                f"raw={value!r}")
            self._bad = True
        if self._last_good is not None:
            return self._last_good
        if math.isfinite(value):
            return min(max(value, self.lo), self.hi)
        return self.lo

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    _STATE_VERSION = 1

    def state_dict(self) -> dict:
        """Last-good register, bad-streak flag and rejection counter."""
        return pack_state(self, self._STATE_VERSION, {
            "last_good": self._last_good,
            "last_time": self._last_time,
            "bad": self._bad,
            "rejected": self.rejected,
        })

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` in place."""
        payload = unpack_state(self, state, self._STATE_VERSION)
        self._last_good = payload["last_good"]
        self._last_time = payload["last_time"]
        self._bad = payload["bad"]
        self.rejected = payload["rejected"]


class Supervisor:
    """Detects actuation failures and owns the degraded-mode flags."""

    def __init__(self, config: Optional[SupervisorConfig] = None,
                 log: Optional[EventLog] = None) -> None:
        self.config = config or SupervisorConfig()
        self.log = log if log is not None else EventLog()
        cfg = self.config
        lo, hi = cfg.temp_range_c
        self.guards: Dict[str, SensorGuard] = {
            "cpu_temp": SensorGuard("cpu_temp", lo, hi,
                                    cfg.temp_max_rate_c_per_s, self.log),
            "surface_temp": SensorGuard("surface_temp", lo, hi,
                                        cfg.temp_max_rate_c_per_s, self.log),
            "soc_big": SensorGuard("soc_big", 0.0, 1.0,
                                   cfg.soc_max_rate_per_s, self.log),
            "soc_little": SensorGuard("soc_little", 0.0, 1.0,
                                      cfg.soc_max_rate_per_s, self.log),
        }
        self._switch_ok = True
        self._tec_ok = True
        self._switch_misses = 0
        self._last_probe_s = -math.inf
        self._tec_strikes = 0
        self._tec_good_streak = 0
        self._tec_on_since: Optional[float] = None
        self._tec_temp_at_on = 0.0
        self.mode_transitions = 0

    # ------------------------------------------------------------------
    # Mode handling
    # ------------------------------------------------------------------
    @property
    def switch_locked(self) -> bool:
        """True while the switch is distrusted (single-battery mode)."""
        return not self._switch_ok

    @property
    def tec_locked(self) -> bool:
        """True while the TEC is distrusted (thermal fallback)."""
        return not self._tec_ok

    @property
    def mode(self) -> str:
        """The current degraded-mode label."""
        if not self._switch_ok and not self._tec_ok:
            return MODE_SAFE
        if not self._switch_ok:
            return MODE_SINGLE_BATTERY
        if not self._tec_ok:
            return MODE_THERMAL_FALLBACK
        return MODE_NORMAL

    def _set_switch_ok(self, ok: bool, now_s: float, detail: str) -> None:
        if ok == self._switch_ok:
            return
        before = self.mode
        self._switch_ok = ok
        self.mode_transitions += 1
        ob = obs.session()
        if ob is not None:
            ob.registry.counter("supervisor.mode_transitions").inc()
        if ok:
            self.log.record_recovery(now_s, "supervisor",
                                     f"mode-exit:{before}", detail)
        else:
            self.log.record_fault(now_s, "supervisor",
                                  f"mode-enter:{self.mode}", detail)

    def _set_tec_ok(self, ok: bool, now_s: float, detail: str) -> None:
        if ok == self._tec_ok:
            return
        before = self.mode
        self._tec_ok = ok
        self.mode_transitions += 1
        ob = obs.session()
        if ob is not None:
            ob.registry.counter("supervisor.mode_transitions").inc()
        if ok:
            self.log.record_recovery(now_s, "supervisor",
                                     f"mode-exit:{before}", detail)
        else:
            self.log.record_fault(now_s, "supervisor",
                                  f"mode-enter:{self.mode}", detail)

    # ------------------------------------------------------------------
    # Sensor sanitation
    # ------------------------------------------------------------------
    def sanitize(self, now_s: float,
                 readings: Mapping[str, float]) -> Dict[str, float]:
        """Run every reading through its channel guard."""
        out: Dict[str, float] = {}
        for name, value in readings.items():
            guard = self.guards.get(name)
            out[name] = guard.clean(value, now_s) if guard is not None else value
        return out

    # ------------------------------------------------------------------
    # Switch supervision
    # ------------------------------------------------------------------
    def verify_switch(self, observed: BatterySelection,
                      commanded: BatterySelection,
                      commanded_depleted: bool, now_s: float,
                      committed: bool = False) -> None:
        """Score last tick's switch request against the observed rail.

        Only called for ticks that *requested a change*.  A request for
        a depleted cell is excused (the pack's own failover redirects
        it; that is policy pressure, not a broken switch), and
        ``committed`` marks a request the switch physically honoured
        (an event hit the log) even if a protective failover moved the
        rail again afterwards -- the comparator demonstrably works.
        """
        if commanded_depleted:
            return
        if observed is commanded or committed:
            self._switch_misses = 0
            if not self._switch_ok:
                self._set_switch_ok(True, now_s, "probe switch honoured")
            return
        self._switch_misses += 1
        ob = obs.session()
        if ob is not None:
            ob.registry.counter("supervisor.switch_misses").inc()
        if self._switch_ok and self._switch_misses >= self.config.switch_retry_limit:
            self._set_switch_ok(
                False, now_s,
                f"{self._switch_misses} consecutive requests unhonoured")

    def switch_probe_due(self, now_s: float) -> bool:
        """Whether single-battery mode should risk one probe request."""
        if self._switch_ok:
            return True
        if now_s - self._last_probe_s >= self.config.switch_probe_interval_s:
            self._last_probe_s = now_s
            return True
        return False

    # ------------------------------------------------------------------
    # TEC supervision
    # ------------------------------------------------------------------
    def verify_tec(self, commanded_on: bool, observed_on: bool,
                   cpu_temp_c: float, now_s: float) -> None:
        """Compare TEC command vs. observation and cooling effectiveness."""
        cfg = self.config
        strike = False
        if commanded_on and not observed_on:
            strike = True
        if observed_on:
            if self._tec_on_since is None:
                self._tec_on_since = now_s
                self._tec_temp_at_on = cpu_temp_c
            elif (now_s - self._tec_on_since >= cfg.tec_check_window_s
                    and cpu_temp_c - self._tec_temp_at_on
                    >= cfg.tec_temp_rise_margin_c):
                # Commanded on, reportedly on, yet the spot keeps
                # climbing: the module pumps nothing (derated/dead).
                strike = True
                self._tec_on_since = now_s
                self._tec_temp_at_on = cpu_temp_c
        else:
            self._tec_on_since = None

        if strike:
            self._tec_good_streak = 0
            self._tec_strikes += 1
            if self._tec_ok and self._tec_strikes >= cfg.tec_strike_limit:
                self._set_tec_ok(False, now_s,
                                 f"{self._tec_strikes} consecutive TEC strikes")
        else:
            self._tec_strikes = 0
            if not self._tec_ok and commanded_on and observed_on:
                self._tec_good_streak += 1
                if (self._tec_good_streak >= cfg.tec_strike_limit
                        and cpu_temp_c < cfg.hot_threshold_c):
                    self._set_tec_ok(True, now_s, "TEC observed cooling again")

    # ------------------------------------------------------------------
    # Thermal fallback actuation
    # ------------------------------------------------------------------
    def throttle(self, demand: DemandSlice, cpu_temp_c: float) -> DemandSlice:
        """Frequency-throttle the demand while in thermal fallback.

        With the TEC dead the only remaining knob is the workload
        itself: cap the DVFS point and utilisation while the hot spot
        sits near the 45 degC line (small hysteresis below it).
        """
        cfg = self.config
        if self._tec_ok or cpu_temp_c < cfg.hot_threshold_c - 2.0:
            return demand
        freq = min(demand.freq_index, cfg.throttle_freq_index)
        util = min(demand.cpu_util, cfg.throttle_cpu_util)
        if freq == demand.freq_index and util == demand.cpu_util:
            return demand
        return dataclasses.replace(demand, freq_index=freq, cpu_util=util)

    @property
    def events(self):
        """The shared event log's snapshot."""
        return self.log.events

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    _STATE_VERSION = 1

    def state_dict(self) -> dict:
        """The full mode machine plus every sensor guard.

        The event log is shared with the fault runtime and checkpointed
        there, so it is deliberately absent here.
        """
        return pack_state(self, self._STATE_VERSION, {
            "switch_ok": self._switch_ok,
            "tec_ok": self._tec_ok,
            "switch_misses": self._switch_misses,
            "last_probe_s": self._last_probe_s,
            "tec_strikes": self._tec_strikes,
            "tec_good_streak": self._tec_good_streak,
            "tec_on_since": self._tec_on_since,
            "tec_temp_at_on": self._tec_temp_at_on,
            "mode_transitions": self.mode_transitions,
            "guards": {name: g.state_dict()
                       for name, g in self.guards.items()},
        })

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` in place."""
        payload = unpack_state(self, state, self._STATE_VERSION)
        self._switch_ok = payload["switch_ok"]
        self._tec_ok = payload["tec_ok"]
        self._switch_misses = payload["switch_misses"]
        self._last_probe_s = payload["last_probe_s"]
        self._tec_strikes = payload["tec_strikes"]
        self._tec_good_streak = payload["tec_good_streak"]
        self._tec_on_since = payload["tec_on_since"]
        self._tec_temp_at_on = payload["tec_temp_at_on"]
        self.mode_transitions = payload["mode_transitions"]
        for name, guard_state in payload["guards"].items():
            guard = self.guards.get(name)
            if guard is not None:
                guard.load_state_dict(guard_state)


# ----------------------------------------------------------------------
# Policy wrapper: faults + supervision through the unchanged harness
# ----------------------------------------------------------------------
@dataclass
class SupervisedPolicy(SchedulingPolicy):
    """Wrap a policy with a fault schedule and (optionally) a supervisor.

    ``build_pack`` swaps the pack's switch and cells for their
    fault-capable wrappers; ``on_cycle_start`` swaps the phone's TEC,
    installs the sensor taps and builds a fresh :class:`Supervisor`.
    Everything is pickle-clean, so supervised policies flow through the
    scenario-sweep engine (and its cache) like any other policy.

    With an empty schedule and ``supervise=False`` the wrapper is
    behaviourally bit-identical to the inner policy.
    """

    inner: SchedulingPolicy = None  # type: ignore[assignment]
    schedule: FaultSchedule = field(default_factory=FaultSchedule)
    supervise: bool = True
    config: SupervisorConfig = field(default_factory=SupervisorConfig)
    name: str = ""

    _runtime: Optional[ScheduleRuntime] = field(init=False, default=None, repr=False)
    _supervisor: Optional[Supervisor] = field(init=False, default=None, repr=False)
    _taps: Optional[dict] = field(init=False, default=None, repr=False)
    _phone: Optional[Phone] = field(init=False, default=None, repr=False)
    _pack: Optional[BatteryPack] = field(init=False, default=None, repr=False)
    #: Last tick's change request: (target, switch_count at command).
    _pending_cmd: Optional[Tuple[BatterySelection, int]] = field(
        init=False, default=None, repr=False)
    _last_clean_cpu: float = field(init=False, default=25.0, repr=False)

    def __post_init__(self) -> None:
        if self.inner is None:
            raise ValueError("SupervisedPolicy needs an inner policy")
        if not self.name:
            self.name = f"{self.inner.name}@{self.schedule.label}"
        self.uses_tec = self.inner.uses_tec

    # ------------------------------------------------------------------
    def build_pack(self) -> BatteryPack:
        self._runtime = self.schedule.runtime()
        runtime = self._runtime
        pack = self.inner.build_pack()
        if isinstance(pack, BigLittlePack):
            switch_faults = tuple(runtime.of_type(SwitchFault))
            if switch_faults:
                old = pack.switch
                pack.switch = FaultyBatterySwitch(
                    latency_s=old.latency_s,
                    switch_energy_j=old.switch_energy_j,
                    switch_heat_j=old.switch_heat_j,
                    min_dwell_s=old.min_dwell_s,
                    initial=old.initial,
                    faults=switch_faults,
                )
            for which in ("big", "little"):
                cell_faults = tuple(runtime.cell_runtimes(which))
                if cell_faults:
                    old_cell = getattr(pack, which)
                    setattr(pack, which, FaultyCell(
                        old_cell.chemistry, old_cell.capacity_mah,
                        old_cell.soc, old_cell.temperature_c,
                        faults=cell_faults,
                    ))
        self._pack = pack
        return pack

    def on_cycle_start(self, trace: Trace, phone: Phone) -> None:
        runtime = self._runtime
        if runtime is None:  # build_pack not driven by the harness
            self._runtime = runtime = self.schedule.runtime()
            self._pack = phone.pack
        tec_faults = tuple(runtime.of_type(TecFault))
        if tec_faults:
            old = phone.tec
            phone.tec = FaultyTEC(
                drive_power_w=old.drive_power_w, pump_w=old.pump_w,
                cold_node=old.cold_node, hot_node=old.hot_node,
                model=old.model, faults=tec_faults,
            )
        self._phone = phone
        self._taps = tap_map(runtime)
        self._supervisor = (Supervisor(self.config, runtime.log)
                            if self.supervise else None)
        self._pending_cmd = None
        self._last_clean_cpu = phone.ambient_c
        self.inner.on_cycle_start(trace, phone)

    # ------------------------------------------------------------------
    def decide_battery(self, ctx: PolicyContext) -> Optional[BatterySelection]:
        runtime = self._runtime
        assert runtime is not None and self._taps is not None
        runtime.observe(ctx.now_s, ctx.cpu_temp_c, ctx.soc_big, ctx.soc_little)

        # Corrupt what the controller reads...
        taps = self._taps
        raw = {
            "cpu_temp": taps["cpu_temp"].read(ctx.cpu_temp_c),
            "surface_temp": taps["surface_temp"].read(ctx.surface_temp_c),
            "soc_big": taps["soc_big"].read(ctx.soc_big),
            "soc_little": taps["soc_little"].read(ctx.soc_little),
        }
        sup = self._supervisor
        if sup is not None:
            # ...then sanity-check it on the way in.
            clean = sup.sanitize(ctx.now_s, raw)
        else:
            clean = raw
        self._last_clean_cpu = clean["cpu_temp"]

        if sup is not None:
            # Score last tick's switch request against the observed rail.
            if self._pending_cmd is not None:
                cmd, evt_base = self._pending_cmd
                sup.verify_switch(
                    ctx.active, cmd, self._commanded_depleted(cmd),
                    ctx.now_s,
                    committed=self._switch_committed(cmd, evt_base))
            # TEC health: commanded vs observed vs thermal trend.
            phone = self._phone
            if phone is not None and self.uses_tec:
                tec = phone.tec
                sup.verify_tec(getattr(tec, "commanded", tec.is_on),
                               tec.is_on, clean["cpu_temp"], ctx.now_s)
        self._pending_cmd = None

        shown = dataclasses.replace(
            ctx,
            cpu_temp_c=clean["cpu_temp"],
            surface_temp_c=clean["surface_temp"],
            soc_big=clean["soc_big"],
            soc_little=clean["soc_little"],
        )
        choice = self.inner.decide_battery(shown)

        if sup is not None and choice is not None and choice is not ctx.active:
            if sup.switch_locked and not sup.switch_probe_due(ctx.now_s):
                # Single-battery safe mode: hold the current rail.
                choice = None
        if choice is not None and choice is not ctx.active:
            pack = self._pack
            count = (pack.switch.switch_count
                     if isinstance(pack, BigLittlePack) else 0)
            self._pending_cmd = (choice, count)
        return choice

    def _commanded_depleted(self, target: BatterySelection) -> bool:
        pack = self._pack
        if isinstance(pack, BigLittlePack):
            return pack.cell_for(target).depleted
        return False

    def _switch_committed(self, target: BatterySelection, evt_base: int) -> bool:
        """Whether an event for ``target`` hit the log since the command."""
        pack = self._pack
        if isinstance(pack, BigLittlePack):
            return any(e.target is target
                       for e in pack.switch.events[evt_base:])
        return False

    # ------------------------------------------------------------------
    def filter_demand(self, demand: DemandSlice,
                      ctx: PolicyContext) -> DemandSlice:
        """Thermal fallback: throttle when the TEC is distrusted."""
        sup = self._supervisor
        if sup is None:
            return demand
        return sup.throttle(demand, self._last_clean_cpu)

    # ------------------------------------------------------------------
    def fault_report(self) -> Dict[str, object]:
        """Structured cycle report consumed by the discharge harness."""
        runtime = self._runtime
        sup = self._supervisor
        return {
            "events": runtime.log.events if runtime is not None else (),
            "mode": sup.mode if sup is not None else MODE_NORMAL,
            "mode_transitions": sup.mode_transitions if sup is not None else 0,
        }

    @property
    def supervisor(self) -> Optional[Supervisor]:
        """The live supervisor (None before a cycle starts)."""
        return self._supervisor

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Hand-picked payload: the base pickle-``__dict__`` default
        would drag live plant references (phone, pack) into the blob.

        Restoring assumes the harness has already run ``build_pack`` /
        ``on_cycle_start`` for this cycle, recreating the fault wiring
        the deterministic schedule implies; the load then overwrites
        the fresh runtime/supervisor/tap state in place.
        """
        pending = None
        if self._pending_cmd is not None:
            target, count = self._pending_cmd
            pending = (target.value, count)
        return pack_state(self, self._STATE_VERSION, {
            "inner": self.inner.state_dict(),
            "runtime": (self._runtime.state_dict()
                        if self._runtime is not None else None),
            "supervisor": (self._supervisor.state_dict()
                           if self._supervisor is not None else None),
            "taps": {ch: tap.state_dict()
                     for ch, tap in (self._taps or {}).items()},
            "pending_cmd": pending,
            "last_clean_cpu": self._last_clean_cpu,
        })

    def load_state_dict(self, state: dict) -> None:
        payload = unpack_state(self, state, self._STATE_VERSION)
        self.inner.load_state_dict(payload["inner"])
        if payload["runtime"] is not None and self._runtime is not None:
            self._runtime.load_state_dict(payload["runtime"])
        if payload["supervisor"] is not None and self._supervisor is not None:
            self._supervisor.load_state_dict(payload["supervisor"])
        if self._taps:
            for ch, tap_state in payload["taps"].items():
                tap = self._taps.get(ch)
                if tap is not None:
                    tap.load_state_dict(tap_state)
        pending = payload["pending_cmd"]
        self._pending_cmd = (None if pending is None
                             else (BatterySelection(pending[0]), pending[1]))
        self._last_clean_cpu = payload["last_clean_cpu"]
