"""Fleet construction: device specs, support checks, schedule packing.

A :class:`FleetSpec` takes a list of :class:`DeviceSpec` rows (policy x
trace x profile x harness knobs -- the same arguments one would hand to
:func:`repro.sim.discharge.run_discharge_cycle`) and packs them into
the struct-of-arrays layout the :class:`~repro.fleet.simulator.
FleetSimulator` advances in lockstep:

* control-step **schedules** are materialised through the *real*
  :func:`repro.sim.engine.iter_control_steps` over the looped trace, so
  every start/dt float is bitwise the one the scalar loop would see;
* per-segment **demand powers** come from the real
  ``Phone._demand_powers`` of a row's :class:`Phone`, computed once
  per distinct (profile, schedule) pair and copied to the rows that
  share it (every row keeps its own Phone for the simulator's
  exact-fallback path);
* heterogeneous **parameters** (chemistry constants, switch costs,
  supercap sizing, TEC drive, thermostat thresholds) are read off the
  constructed objects into padded ``(N,)`` arrays, and ``(2, N)``
  arrays for the per-cell parameters (:data:`CELL_PARAMS`).

A single-battery pack (the ``Practice`` baseline) loads its cell into
the "big" slot; its "little" slot holds a zero-charge phantom that is
always depleted, and the per-row ``single`` mask gates the branches
where :meth:`~repro.battery.pack.SingleBatteryPack.draw` differs from
the big.LITTLE draw.

Devices the vectorised path cannot reproduce exactly (overridden
demand filters, supervised/fault policies, custom component
subclasses) raise :class:`UnsupportedDeviceError` -- callers like the
sweep runner route those rows to the scalar engine instead, and
:func:`unsupported_reason` says why.
"""

from __future__ import annotations

import hashlib
import math
import pickle
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..battery import kinetics as K
from ..battery.cell import Cell
from ..battery.pack import BigLittlePack, SingleBatteryPack
from ..battery.supercap import Supercapacitor
from ..battery.switch import BatterySelection, BatterySwitch
from ..device.phone import Phone
from ..device.profiles import NEXUS, PhoneProfile
from ..device.syscalls import Syscall
from ..sim.discharge import SchedulingPolicy
from ..sim.engine import iter_control_steps
from ..thermal.hotspot import HOT_SPOT_THRESHOLD_C
from ..thermal.tec import TECUnit
from ..workload.base import Segment
from ..workload.traces import Trace
from .state import BIG_SLOT, LITTLE_SLOT, FleetState

__all__ = ["DeviceSpec", "FleetSpec", "UnsupportedDeviceError",
           "unsupported_reason", "NODE_NAMES", "CELL_PARAMS"]

#: Canonical node order of the phone thermal network; the fleet's
#: ``node_temps`` columns use these indices.
NODE_NAMES = ("cpu", "battery", "surface", "ambient")

#: Per-cell parameters, in the order of the ``(len, 2, N)`` block
#: ``params["cell"]``; ``params[name]`` is that block's ``(2, N)`` row.
CELL_PARAMS = ("cap", "imax", "r0", "tc", "cutoff", "full", "c", "k",
               "coul", "rl", "r1", "tau")


class UnsupportedDeviceError(ValueError):
    """The device cannot be batch-simulated exactly; use the scalar path."""


@dataclass(frozen=True)
class DeviceSpec:
    """One device (= one batch row): the ``run_discharge_cycle`` spec."""

    policy: SchedulingPolicy
    trace: Trace
    profile: PhoneProfile = NEXUS
    control_dt: float = 1.0
    max_duration_s: float = 3.0 * 3600.0
    ambient_c: float = 25.0
    tec_threshold_c: float = HOT_SPOT_THRESHOLD_C
    record_every: int = 1
    brownout_limit: int = 3


class Schedule:
    """A materialised control-step sequence shared by identical rows."""

    __slots__ = ("starts", "dts", "seg_of_step", "seg_start", "syscalls",
                 "segments", "n_steps", "_fingerprint")

    def __init__(self, trace: Trace, control_dt: float,
                 max_duration_s: float) -> None:
        def looped():
            while True:
                for seg in trace:
                    yield seg

        seg_index: Dict[int, int] = {}
        segments: List[Segment] = []
        starts: List[float] = []
        dts: List[float] = []
        seg_of_step: List[int] = []
        seg_start: List[bool] = []
        syscalls: List[Optional[Syscall]] = []
        for step in iter_control_steps(looped(), control_dt, max_duration_s):
            idx = seg_index.get(id(step.segment))
            if idx is None:
                idx = len(segments)
                seg_index[id(step.segment)] = idx
                segments.append(step.segment)
            starts.append(step.start_s)
            dts.append(step.dt)
            seg_of_step.append(idx)
            seg_start.append(step.segment_start)
            syscalls.append(step.syscall)
        self.starts = np.asarray(starts, dtype=np.float64)
        self.dts = np.asarray(dts, dtype=np.float64)
        self.seg_of_step = np.asarray(seg_of_step, dtype=np.int64)
        self.seg_start = np.asarray(seg_start, dtype=bool)
        self.syscalls = syscalls
        self.segments = segments
        self.n_steps = len(starts)
        self._fingerprint: Optional[str] = None

    def content_fingerprint(self) -> str:
        """Content hash of the materialised control-step grid.

        Two schedules with equal fingerprints drive byte-identical
        scalar control loops: the step grid (starts/dts/segment
        mapping/segment-start flags) is hashed raw, and each distinct
        segment via its deterministic frozen-dataclass ``repr`` (demand,
        duration, syscall -- the same convention as
        :func:`repro.sim.discharge.trace_fingerprint`).  Per-step
        syscalls are derivable from segments + ``seg_start``, so they
        need no separate hashing.  The CAPMAN fleet driver keys shared
        learning trajectories on this, so content-equal traces dedupe
        even when they are distinct Python objects.
        """
        if self._fingerprint is None:
            h = hashlib.sha256()
            h.update(self.starts.tobytes())
            h.update(self.dts.tobytes())
            h.update(self.seg_of_step.tobytes())
            h.update(self.seg_start.tobytes())
            for seg in self.segments:
                h.update(repr((seg.demand, seg.duration_s,
                               seg.syscall)).encode())
            self._fingerprint = h.hexdigest()
        return self._fingerprint


def _check_policy(policy: SchedulingPolicy) -> Optional[str]:
    """Reason the policy is unsupported, or None when it is fine."""
    if type(policy).filter_demand is not SchedulingPolicy.filter_demand:
        return "policy overrides filter_demand (demand rewriting)"
    if callable(getattr(policy, "fault_report", None)):
        return "policy reports fault/degraded-mode state"
    return None


def _check_cell(cell) -> Optional[str]:
    """Reason the cell is unsupported, or None when it is fine."""
    if type(cell) is not Cell:
        return "custom cell subclass"
    _, tau = cell.chemistry.effective_transient()
    if tau <= 0:
        return "chemistry with non-positive transient tau"
    return None


def _check_pack(pack) -> Optional[str]:
    """Reason the pack is unsupported, or None when it is fine."""
    if type(pack) is SingleBatteryPack:
        return _check_cell(pack.cell)
    if type(pack) is not BigLittlePack:
        return (f"pack type {type(pack).__name__} is neither "
                f"BigLittlePack nor SingleBatteryPack")
    if type(pack.switch) is not BatterySwitch:
        return "custom switch subclass"
    if pack.supercap is not None and type(pack.supercap) is not Supercapacitor:
        return "custom supercapacitor subclass"
    for cell in (pack.big, pack.little):
        reason = _check_cell(cell)
        if reason is not None:
            return reason
    return None


def slot_cells(pack) -> Tuple[Tuple[int, Cell], ...]:
    """``(slot, cell)`` for each per-cell state row a live pack fills.

    A single-battery pack fills only :data:`BIG_SLOT`; its LITTLE slot
    is the zero-charge phantom, which has no object twin.
    """
    if type(pack) is SingleBatteryPack:
        return ((BIG_SLOT, pack.cell),)
    return ((BIG_SLOT, pack.big), (LITTLE_SLOT, pack.little))


def unsupported_reason(policy: SchedulingPolicy) -> Optional[str]:
    """Why the fleet path cannot reproduce this policy's cycle exactly.

    None when it can.  Probes
    :meth:`~repro.sim.discharge.SchedulingPolicy.build_pack` on a
    throwaway instance, so it is safe to call on a template policy.
    """
    reason = _check_policy(policy)
    if reason is not None:
        return reason
    try:
        pack = policy.build_pack()
    except Exception as exc:
        return f"build_pack raised {type(exc).__name__}: {exc}"
    return _check_pack(pack)


class FleetSpec:
    """Builder: packs heterogeneous devices into one lockstep batch."""

    def __init__(self, devices: Sequence[DeviceSpec]) -> None:
        if not devices:
            raise ValueError("a fleet needs at least one device")
        self.devices: Tuple[DeviceSpec, ...] = tuple(devices)

    def __len__(self) -> int:
        return len(self.devices)

    def build(self):
        """Construct the batch simulator (see module docstring).

        Policies are cloned through a pickle round trip -- exactly the
        isolation the sweep runner applies before a scalar cell run --
        so the caller's template instances are never mutated.
        """
        from .simulator import FleetSimulator

        n = len(self.devices)
        phones: List[Phone] = []
        policies: List[SchedulingPolicy] = []
        schedules: List[Schedule] = []
        sched_cache: Dict[Tuple[int, float, float], Schedule] = {}
        topology = None
        topologies: Dict[float, Tuple] = {}

        params: Dict[str, np.ndarray] = {}
        cell_params = params["cell"] = np.zeros((len(CELL_PARAMS), 2, n))
        for q, name in enumerate(CELL_PARAMS):
            params[name] = cell_params[q]

        def farr(name):
            arr = params.get(name)
            if arr is None:
                arr = params[name] = np.zeros(n, dtype=np.float64)
            return arr

        for i, dev in enumerate(self.devices):
            reason = _check_policy(dev.policy)
            if reason is not None:
                raise UnsupportedDeviceError(f"device {i}: {reason}")
            policy = pickle.loads(pickle.dumps(dev.policy, protocol=4))
            pack = policy.build_pack()
            reason = _check_pack(pack)
            if reason is not None:
                raise UnsupportedDeviceError(f"device {i}: {reason}")

            phone = Phone(profile=dev.profile, pack=pack,
                          ambient_c=dev.ambient_c)
            if type(phone.tec) is not TECUnit or (
                    phone.tec.cold_node, phone.tec.hot_node) != ("cpu",
                                                                 "surface"):
                raise UnsupportedDeviceError(f"device {i}: non-standard TEC")
            # The phone's network is phone_thermal_network(ambient_c):
            # compile it once per ambient, not once per row.
            topo = topologies.get(dev.ambient_c)
            if topo is None:
                topo = topologies[dev.ambient_c] = \
                    phone.thermal.compiled_topology()
            if tuple(topo[0]) != NODE_NAMES:
                raise UnsupportedDeviceError(
                    f"device {i}: non-standard thermal node set {topo[0]}")
            if topology is None:
                topology = topo
            elif (topo[1], topo[2], topo[3]) != (topology[1], topology[2],
                                                 topology[3]):
                raise UnsupportedDeviceError(
                    f"device {i}: thermal topology differs across the fleet")
            policy.on_cycle_start(dev.trace, phone)

            key = (id(dev.trace), dev.control_dt, dev.max_duration_s)
            sched = sched_cache.get(key)
            if sched is None:
                sched = Schedule(dev.trace, dev.control_dt,
                                 dev.max_duration_s)
                sched_cache[key] = sched
            if sched.n_steps == 0:
                raise UnsupportedDeviceError(
                    f"device {i}: empty control schedule")

            phones.append(phone)
            policies.append(policy)
            schedules.append(sched)

            single = type(pack) is SingleBatteryPack
            params.setdefault("single", np.zeros(n, dtype=bool))[i] = single
            slots = slot_cells(pack)
            if single:
                # The phantom LITTLE cell: the real cell's chemistry at
                # zero charge, so it is depleted from the first step on.
                slots += ((LITTLE_SLOT, Cell(pack.cell.chemistry,
                                             pack.cell.capacity_mah,
                                             soc=0.0)),)
            for slot, cell in slots:
                chem = cell.chemistry
                cell_params[:, slot, i] = (
                    cell.capacity_amp_s, cell.max_current,
                    chem.internal_resistance, chem.resistance_temp_coeff,
                    chem.cutoff_voltage, chem.full_voltage, chem.kibam_c,
                    chem.kibam_k, chem.coulombic_efficiency,
                    chem.rate_loss_coeff) + chem.effective_transient()

            sw = None if single else pack.switch
            farr("sw_energy_j")[i] = sw.switch_energy_j if sw else 0.0
            farr("sw_heat_j")[i] = sw.switch_heat_j if sw else 0.0
            farr("sw_dwell_s")[i] = sw.min_dwell_s if sw else 0.0

            sc = None if single else pack.supercap
            has_sc = params.setdefault("has_sc", np.zeros(n, dtype=bool))
            has_sc[i] = sc is not None
            farr("sc_cap_f")[i] = sc.capacitance_f if sc else 1.0
            farr("sc_rated_v")[i] = sc.rated_voltage if sc else 1.0
            farr("sc_esr")[i] = sc.esr_ohm if sc else 0.0
            farr("sc_refill_w")[i] = sc._refill_rate_w() if sc else 0.0

            farr("tec_drive_w")[i] = phone.tec.drive_power_w
            farr("tec_pump_w")[i] = phone.tec.pump_w
            uses_tec = params.setdefault("uses_tec", np.zeros(n, dtype=bool))
            uses_tec[i] = bool(policy.uses_tec)
            farr("thr_threshold_c")[i] = dev.tec_threshold_c
            farr("thr_hysteresis_k")[i] = 2.0  # ThermostatController default
            farr("ambient_c")[i] = dev.ambient_c

            rec = params.setdefault("record_every", np.zeros(n, np.int64))
            rec[i] = dev.record_every
            brw = params.setdefault("brownout_limit", np.zeros(n, np.int64))
            brw[i] = dev.brownout_limit

        # Parameter-only parts of the per-step kernels.
        params["well_cap"] = K.well_substep_cap(params["c"], params["k"])
        params["sc_full_j"], params["sc_floor_j"] = K.supercap_energies(
            params["sc_cap_f"], params["sc_rated_v"])

        cap = params["cap"]
        params["cap_total"] = np.where(params["single"], cap[BIG_SLOT],
                                       cap[BIG_SLOT] + cap[LITTLE_SLOT])

        # Demand-power tables, (3, N, max_segs): base power, CPU power
        # and the surface share of the rest (the thermal injection
        # ``max(0.0, base - cpu) * 0.6``).  A row depends only on the
        # profile and the schedule, so each distinct pair is computed
        # once through the real Phone._demand_powers and then copied.
        max_segs = max(len(s.segments) for s in schedules)
        demand_tbl = np.zeros((3, n, max_segs), dtype=np.float64)
        base_tbl, cpu_tbl, surf_tbl = demand_tbl
        first_row: Dict[Tuple[int, int], int] = {}
        for i, (dev, phone, sched) in enumerate(zip(self.devices, phones,
                                                     schedules)):
            first = first_row.setdefault((id(dev.profile), id(sched)), i)
            if first != i:
                demand_tbl[:, i] = demand_tbl[:, first]
                continue
            for si, seg in enumerate(sched.segments):
                base_tbl[i, si], cpu_tbl[i, si] = phone._demand_powers(
                    seg.demand)
        surf_tbl[:] = K.pymax(0.0, base_tbl - cpu_tbl) * 0.6

        n_steps = np.asarray([s.n_steps for s in schedules], dtype=np.int64)

        return FleetSimulator(
            spec=self, phones=phones, policies=policies,
            schedules=schedules, params=params,
            demand_tbl=demand_tbl, n_steps=n_steps,
            topology=topology,
        )


def initial_state_from_phones(phones: Sequence[Phone]):
    """Seed a :class:`~repro.fleet.state.FleetState` from live phones."""
    n = len(phones)
    st = FleetState(n)
    for i, phone in enumerate(phones):
        pack = phone.pack
        cells = slot_cells(pack)
        for slot, cell in cells:
            st.avail[slot, i] = cell._available
            st.bound[slot, i] = cell._bound
            st.vtrans[slot, i] = cell._v_transient
            st.throughput[slot, i] = cell._throughput
        st.cell_temp_c[i] = cells[0][1].temperature_c
        if type(pack) is SingleBatteryPack:
            # The scalar harness reports a single pack as active BIG.
            st.active_big[i] = True
        else:
            sw = pack.switch
            st.active_big[i] = sw.active is BatterySelection.BIG
            st.last_switch_s[i] = sw._last_switch_time
            st.switch_events[i] = len(sw._events)
            st.sw_energy_spent_j[i] = sw._energy_spent_j
            st.sw_heat_pending_j[i] = sw._heat_emitted_j
            st.sw_energy_pending_j[i] = sw._pending_energy_j
            if pack.supercap is not None:
                st.supercap_v[i] = pack.supercap._voltage
        st.tec_on[i] = phone.tec.is_on
        st.tec_on_time_s[i] = phone.tec.on_time_s
        st.tec_energy_j[i] = phone.tec.energy_used_j
        st.thermo_on[i] = False
        for ni, name in enumerate(NODE_NAMES):
            st.node_temps[ni][i] = phone.thermal.temperature(name)
        st.clock_s[i] = phone.clock_s
        st.max_temp_c[i] = phone.ambient_c
    st.alive[:] = True
    assert math.isfinite(float(st.cell_temp_c.sum()))
    return st
