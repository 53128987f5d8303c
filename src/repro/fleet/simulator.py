"""Vectorised lockstep batch simulator for N phones.

One :meth:`FleetSimulator.step` advances every device by one control
step with masked NumPy operations over the struct-of-arrays
:class:`~repro.fleet.state.FleetState`.  The step is an exact
transcription of one iteration of
:func:`~repro.sim.discharge.run_discharge_cycle` -- same kernels
(``repro.battery.kinetics``, ``repro.thermal.conduction``), same
operation order, same branch structure expressed as masks -- so a
batch of one is bit-for-bit identical to the scalar engine (the
oracle; see DESIGN.md section 11 and ``tests/test_fleet_vs_scalar``).

Single-battery rows (``Practice``) share the arrays: their cell sits
in the BIG slot, a zero-charge phantom in the LITTLE slot, and the
``single`` mask turns off what
:meth:`~repro.battery.pack.SingleBatteryPack.draw` does not do --
select, failover, supercap, rail arithmetic, big/LITTLE time -- and
reads the SoC off the one cell.

Per-cell state and parameters are ``(2, N)`` arrays (BIG row, LITTLE
row), so each cell kernel runs once for both cells, and the active
cell's values are gathers through one flat index.  A branch whose row
mask is usually empty (a switch, a failover, the TEC, a brownout) runs
only when its mask has a row; skipping it on an empty mask changes no
element.

Two structural tricks keep that contract watertight:

* **Phase split.**  Phase A (policy decision, battery select,
  thermostat) mutates state in place exactly as the scalar harness
  does before ``phone.step``.  Phase B (the pack draw and thermal
  step) is computed *functionally* into candidate arrays and committed
  only for rows whose step is "regular".
* **Exact fallback.**  Rows taking a rare data-dependent branch the
  vector path does not model -- a partial-dt well integration
  (``drawn * dt > available``) or a mid-step deficit failover to the
  idle cell -- are replayed through their own persistent scalar
  :class:`~repro.device.phone.Phone`, synced from the arrays.  The
  fallback *is* the reference implementation, so irregular rows are
  exact by construction and the batch stays exact without modelling
  every corner case twice.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs as _obs
from ..battery import kinetics as K
from ..battery.switch import BatterySelection
from ..sim.discharge import DischargeResult
from ..sim.metrics import MetricsRecorder
from .policies import (CHOICE_BIG, CHOICE_NONE, StepObservation,
                       make_decision_drivers)
from .spec import NODE_NAMES, initial_state_from_phones, slot_cells
from .state import BIG_SLOT, LITTLE_SLOT
from . import capman as _capman  # noqa: F401  (registers VectorCapmanDriver)

__all__ = ["FleetSimulator"]

_BIG = BatterySelection.BIG
_LITTLE = BatterySelection.LITTLE

#: The branches of :meth:`FleetSimulator.step` that run only when their
#: row mask is non-empty, as counted in ``branch_steps``.
GUARDED_BRANCHES = ("select", "predraw_failover", "supercap",
                    "deficit_failover", "tec", "hot", "empty", "brownout")


def _can_serve(dep, maxp, tv, avail, p, dt):
    """Vector twin of ``BigLittlePack._can_serve`` (same float ops)."""
    i_est = p / K.pymax(tv, 1.0)
    ok = (~(maxp < p)) & (avail > i_est * dt * 1.05)
    return ~dep & ((p <= 0.0) | ok)


def _step_tables(schedules: Sequence,
                 thermal_sub: float) -> Tuple[np.ndarray, np.ndarray]:
    """Per-schedule step columns, padded to the longest schedule.

    Returns ``(times, ints)``: ``times[:, s, j]`` holds the start and
    length of schedule ``s``'s step ``j``, and ``ints[:, s, j]`` its
    segment index and thermal substep count (the column twin of
    ``conduction.substep_count``, a function of the length alone).
    Padding steps have length 1.0; no row runs them.
    """
    width = max(sched.n_steps for sched in schedules)
    times = np.zeros((2, len(schedules), width))
    times[1] = 1.0
    ints = np.zeros((2, len(schedules), width), dtype=np.int64)
    for s, sched in enumerate(schedules):
        times[0, s, :sched.n_steps] = sched.starts
        times[1, s, :sched.n_steps] = sched.dts
        ints[0, s, :sched.n_steps] = sched.seg_of_step
    ints[1] = np.minimum(np.maximum(np.ceil(times[1] / thermal_sub), 1.0),
                         100_000.0).astype(np.int64)
    return times, ints


class FleetSimulator:
    """Advances a fleet built by :meth:`repro.fleet.spec.FleetSpec.build`."""

    def __init__(self, spec, phones, policies, schedules, params,
                 demand_tbl, n_steps, topology) -> None:
        self.spec = spec
        self.phones = phones
        self.policies = policies
        self.schedules = schedules
        self.p: Dict[str, np.ndarray] = params
        #: ``(3, N, max_segs)``: base, CPU and surface power per segment.
        self.demand_tbl = demand_tbl
        self.base_tbl, self.cpu_tbl, _ = demand_tbl
        self.n_steps = n_steps
        self.max_steps = int(n_steps.max())
        # topology: (names, index_links, (index, capacity) actives, substep)
        self.links = topology[1]
        self.actives = topology[2]
        self.thermal_sub = topology[3]

        self.n = len(phones)
        self.state = initial_state_from_phones(phones)
        self._rows = np.arange(self.n)
        # Flat indices into a (2, N) per-cell array: a row's BIG and
        # LITTLE elements, and their sum (so idle = sum - active).
        self._flat_little = self._rows + self.n
        self._flat_sum = self._rows + self._flat_little
        self._cell_params = params["cell"].reshape(-1, 2 * self.n)
        self._single = params["single"]
        self._dual = ~self._single
        self._any_single = bool(np.count_nonzero(self._single))
        # Same subtraction the thermostat performs per step.
        self._thr_off = params["thr_threshold_c"] - params["thr_hysteresis_k"]
        self._record_all = bool((params["record_every"] == 1).all())
        #: Steps after which some row's schedule ends.
        self._last_steps = set((n_steps - 1).tolist())

        # Per-step columns: each row reads its schedule's column.
        distinct = list({id(sched): sched for sched in schedules}.values())
        index = {id(sched): i for i, sched in enumerate(distinct)}
        self._sched_of_row = np.asarray(
            [index[id(sched)] for sched in schedules], dtype=np.int64)
        self._times, self._ints = _step_tables(distinct, self.thermal_sub)

        # Partition rows into per-type vector drivers + scalar adapter.
        self.drivers, self.rows_adapted = make_decision_drivers(
            policies, schedules, self)
        self.rows_vectorised = self.n - self.rows_adapted

        #: ``(rows, t, soc, cpu, power, voltage)`` snapshots for metrics.
        self._snapshots: List[Tuple] = []
        self._results: Optional[List[DischargeResult]] = None
        #: Rows replayed through the scalar fallback, for diagnostics.
        self.fallback_steps = 0
        #: Steps on which each mask-guarded branch of :meth:`step` ran.
        self.branch_steps: Dict[str, int] = dict.fromkeys(GUARDED_BRANCHES, 0)
        self._counters_exported = False

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def run(self) -> List[DischargeResult]:
        """Advance every device to completion and return the results."""
        for j in range(self.max_steps):
            if not self.state.alive.any():
                break
            self.step(j)
        self._export_counters()
        return self.results()

    @property
    def steps_total(self) -> int:
        """Device-steps executed so far (the throughput numerator)."""
        return int(self.state.steps_run.sum())

    @property
    def table_compiles(self) -> int:
        """CAPMAN replan-boundary solves performed."""
        return sum(getattr(d, "table_compiles", 0) for d in self.drivers)

    @property
    def solve_fallbacks(self) -> int:
        """CAPMAN solves the optimality certificate refused."""
        return sum(getattr(d, "solve_fallbacks", 0) for d in self.drivers)

    @property
    def trajectory_dedupe_hits(self) -> int:
        """CAPMAN rows that shared another row's learned trajectory."""
        return sum(getattr(d, "trajectory_dedupe_hits", 0)
                   for d in self.drivers)

    def _export_counters(self) -> None:
        """Flush driver-mix/fallback counters to the obs registry.

        One call per run, guarded on an enabled session -- the obs
        layer's disabled-mode invisibility contract stays intact.
        """
        ob = _obs.session()
        if ob is None or self._counters_exported:
            return
        self._counters_exported = True
        reg = ob.registry
        reg.counter("fleet.rows_vectorised").inc(self.rows_vectorised)
        reg.counter("fleet.rows_adapted").inc(self.rows_adapted)
        reg.counter("fleet.fallback_steps").inc(self.fallback_steps)
        reg.counter("fleet.table_compiles").inc(self.table_compiles)
        reg.counter("fleet.solve_fallbacks").inc(self.solve_fallbacks)
        reg.counter("fleet.trajectory_dedupe_hits").inc(
            self.trajectory_dedupe_hits)

    # ------------------------------------------------------------------
    # One lockstep control step
    # ------------------------------------------------------------------
    def step(self, j: int) -> None:
        st = self.state
        p = self.p
        rows = self._rows
        n = self.n

        # -- Column assembly ------------------------------------------
        # A row past its schedule reads the padding and does not run.
        run = st.alive & (j < self.n_steps)
        if not np.count_nonzero(run):
            st.alive[:] = False
            return
        all_run = np.count_nonzero(run) == n
        starts, dt = self._times[:, :, j][:, self._sched_of_row]
        segi, thermal_counts = self._ints[:, :, j][:, self._sched_of_row]
        base_w, cpu_w, surf_w = self.demand_tbl[:, rows, segi]

        # -- Phase A: observe, decide, select, thermostat -------------
        single = self._single
        run_dual = run & self._dual
        soc = K.state_of_charge(st.avail, st.bound, p["cap"])
        soc_b, soc_l = soc
        t_cpu = st.node_temps[0]
        t_surf = st.node_temps[2]

        # A single pack shows its one cell's SoC as both SoCs.
        choices = np.full(n, CHOICE_NONE, dtype=np.int8)
        obs = StepObservation(j=j, run=run, starts=starts, dts=dt,
                              segi=segi, soc_big=soc_b,
                              soc_little=np.where(single, soc_b, soc_l),
                              cpu_temp=t_cpu, surf_temp=t_surf,
                              active_big=st.active_big, base_w=base_w)
        for driver in self.drivers:
            driver.decide(obs, choices)

        dep = st.avail <= 1e-9
        dep_b, dep_l = dep

        # pack.select: depleted-target fallback, then switch.request
        # (Phone.select_battery is a no-op on single packs).
        tgt_big = choices == CHOICE_BIG
        redirect = (np.where(tgt_big, dep_b, dep_l)
                    & ~np.where(tgt_big, dep_l, dep_b))
        tgt_big = tgt_big ^ redirect
        commit = run_dual & (choices >= 0) & (tgt_big != st.active_big)
        if np.count_nonzero(commit):
            self.branch_steps["select"] += 1
            commit &= ~((st.clock_s - st.last_switch_s) < p["sw_dwell_s"])
            st.active_big = np.where(commit, tgt_big, st.active_big)
            st.last_switch_s = np.where(commit, st.clock_s,
                                        st.last_switch_s)
            st.switch_events = st.switch_events + commit
            st.sw_energy_spent_j = np.where(
                commit, st.sw_energy_spent_j + p["sw_energy_j"],
                st.sw_energy_spent_j)
            st.sw_heat_pending_j = np.where(
                commit, st.sw_heat_pending_j + p["sw_heat_j"],
                st.sw_heat_pending_j)

        # Thermostat + TEC drive (harness level, in place).
        upd = run & p["uses_tec"]
        thr = p["thr_threshold_c"]
        rise = ~st.thermo_on & (t_cpu >= thr)
        fall = st.thermo_on & (t_cpu < self._thr_off)
        new_on = np.where(rise, True, np.where(fall, False, st.thermo_on))
        st.thermo_on = np.where(upd, new_on, st.thermo_on)
        st.tec_on = np.where(upd, new_on, st.tec_on)
        tec_any = np.count_nonzero(run & st.tec_on)

        # -- Phase B: pack.draw + thermal, functional candidates ------
        total_w = base_w + (np.where(st.tec_on, p["tec_drive_w"], 0.0)
                            if tec_any else 0.0)
        demand_j = total_w * dt

        # Pre-draw electrical observations, both cells at once.
        ocv = K.ocv(soc, p["cutoff"], p["full"])
        r_cell = K.internal_resistance(soc, st.cell_temp_c, p["r0"],
                                       p["tc"])
        veff = ocv - st.vtrans
        maxp = K.max_power(veff, r_cell, p["imax"])
        # terminal_voltage(0.0) == ocv - 0.0*r - vt == veff bitwise.
        cs = _can_serve(dep, maxp, veff, st.avail, total_w, dt)

        # Pre-draw failover (pack.draw step 1) -- candidates only; the
        # scalar fallback re-runs this for irregular rows.  The dwell
        # guard must see the post-Phase-A switch time: a select commit
        # this step resets the dwell clock.
        # ``flat`` indexes the active cell's element of a (2, N) array
        # (``arr.take(flat)``), ``idle`` the other cell's.
        act = st.active_big
        flat = np.where(act, rows, self._flat_little)
        active2, last2, nev2 = act, st.last_switch_s, st.switch_events
        esp2, heat = st.sw_energy_spent_j, st.sw_heat_pending_j
        stuck = run_dual & ~cs.take(flat)
        if np.count_nonzero(stuck):
            self.branch_steps["predraw_failover"] += 1
            idle = self._flat_sum - flat
            fail_commit = (
                stuck & (cs.take(idle) | (dep.take(flat) & ~dep.take(idle)))
                & ~((st.clock_s - st.last_switch_s) < p["sw_dwell_s"]))
            active2 = act ^ fail_commit
            flat = np.where(active2, rows, self._flat_little)
            last2 = np.where(fail_commit, st.clock_s, last2)
            nev2 = nev2 + fail_commit
            esp2 = np.where(fail_commit, esp2 + p["sw_energy_j"], esp2)
            heat = np.where(fail_commit, heat + p["sw_heat_j"], heat)

        # switch.take_heat_j() is ``heat``; switch.take_energy_j():
        unbilled = esp2 - st.sw_energy_pending_j
        overhead_w = unbilled / dt
        gross = total_w + overhead_w

        # Supercap filter on the LITTLE rail (single rows stay on BIG).
        sc_rows = run & ~active2 & p["has_sc"]
        battery_power, cap_j, scv2 = gross, 0.0, st.supercap_v
        if np.count_nonzero(sc_rows):
            self.branch_steps["supercap"] += 1
            sc_batt, sc_capj, sc_heat, sc_v2 = K.supercap_smooth(
                gross, dt, st.supercap_v, p["sc_cap_f"], p["sc_rated_v"],
                p["sc_esr"], p["sc_refill_w"],
                (p["sc_full_j"], p["sc_floor_j"]))
            battery_power = np.where(sc_rows, sc_batt, gross)
            cap_j = np.where(sc_rows, sc_capj, 0.0)
            heat = np.where(sc_rows, heat + sc_heat, heat)
            scv2 = np.where(sc_rows, sc_v2, st.supercap_v)

        # Active-cell draw (cell.draw_power): the active cell's twelve
        # parameters in one gather, then its pre-step state.
        (cap_a, imax_a, r0_a, tc_a, cutoff_a, full_a, c_a, k_a, coul_a,
         rl_a, _, _) = self._cell_params.take(flat, axis=1)
        veff_a = veff.take(flat)
        r_a = r_cell.take(flat)
        avail_a = st.avail.take(flat)
        bound_a = st.bound.take(flat)

        bp = battery_power
        zero = bp == 0.0
        dep_pre = avail_a <= 1e-9
        main = run & ~zero & ~dep_pre

        cur_raw = K.current_for_power(bp, veff_a, r_a)
        clamp = cur_raw > imax_a
        current = np.where(clamp, imax_a, cur_raw)
        delivered_w = K.pymin(bp, K.pymax(0.0, current *
                                          (veff_a - current * r_a)))
        i_sus = K.sustainable_current(bound_a, c_a, k_a)
        eta = coul_a * (1.0 - K.rate_loss(current, i_sus, rl_a))
        drawn = current / eta
        cur_eff = np.where(main, current, 0.0)
        drawn_eff = np.where(main, drawn, 0.0)
        partial = main & (drawn * dt > avail_a)

        # KiBaM wells and RC transient, both cells (active draws, idle
        # rests).
        cur = np.zeros((2, n))
        cur.put(flat, drawn_eff)
        y1, y2 = self._wells(st.avail, st.bound, cur, dt, p["c"], p["k"],
                             p["well_cap"], run)
        tr = np.zeros((2, n))
        tr.put(flat, cur_eff)
        alpha = np.exp(-dt / p["tau"])
        vt2 = K.step_transient(st.vtrans, tr, p["r1"], alpha)

        # Post-step terminal voltage, heat and energy of the draw.
        soc_a2 = K.state_of_charge(y1.take(flat), y2.take(flat), cap_a)
        ocv_a2 = K.ocv(soc_a2, cutoff_a, full_a)
        r_a2 = K.internal_resistance(soc_a2, st.cell_temp_c, r0_a, tc_a)
        voltage = ocv_a2 - cur_eff * r_a2 - vt2.take(flat)
        ohmic = cur_eff * cur_eff * r_a2 * dt
        parasitic = (drawn_eff - cur_eff) * K.pymax(voltage, 0.0) * dt
        heat_cell = np.where(main, ohmic + parasitic, 0.0)
        energy_cell = np.where(main, delivered_w * dt, 0.0)
        heat3 = heat + heat_cell

        # Rail accounting (pack.draw step 5); a single pack delivers
        # the cell's energy as is.
        load_share = np.where(cap_j > 0.0, bp, K.pymin(gross, bp))
        bp_pos = bp > 0.0
        served_frac = np.where(
            bp_pos, energy_cell / np.where(bp_pos, bp * dt, 1.0), 1.0)
        rail_j = load_share * dt * served_frac + cap_j
        delivered_j = np.where(
            single, energy_cell,
            K.pymin(demand_j, K.pymax(0.0, rail_j - overhead_w * dt)))
        deficit = demand_j - delivered_j

        # Mid-step deficit failover check against the *pre-step* idle
        # cell (scalar evaluates it before idle.rest runs).
        irregular = partial
        short = run_dual & (deficit > 1e-9)
        if np.count_nonzero(short):
            self.branch_steps["deficit_failover"] += 1
            idle = self._flat_sum - flat
            avail_i = st.avail.take(idle)
            can_idle = _can_serve(avail_i <= 1e-9, maxp.take(idle),
                                  veff.take(idle), avail_i, deficit / dt, dt)
            irregular = partial | (short & can_idle)
        any_irregular = np.count_nonzero(irregular)
        reg = run & ~irregular if any_irregular else run

        # -- Commit Phase B for regular rows --------------------------
        # Free when every row is running and regular.  No two state
        # fields may share a buffer (_fallback_row writes rows in
        # place), hence the one copy.
        if all_run and not any_irregular:
            def W(new, old):
                return new

            st.sw_energy_pending_j = esp2.copy()
        else:
            def W(new, old):
                return np.where(reg, new, old)

            st.sw_energy_pending_j = W(esp2, st.sw_energy_pending_j)
        st.avail = W(y1, st.avail)
        st.bound = W(y2, st.bound)
        st.vtrans = W(vt2, st.vtrans)
        st.throughput = W(st.throughput + tr * dt, st.throughput)
        st.active_big = W(active2, st.active_big)
        st.last_switch_s = W(last2, st.last_switch_s)
        st.switch_events = W(nev2, st.switch_events)
        st.sw_energy_spent_j = W(esp2, st.sw_energy_spent_j)
        st.sw_heat_pending_j = W(np.zeros(n), st.sw_heat_pending_j)
        st.supercap_v = W(scv2, st.supercap_v)

        # Thermal network (phone.step tail), regular rows only.
        inj_cpu, inj_surf = cpu_w, surf_w
        if tec_any:
            self.branch_steps["tec"] += 1
            eff = K.pymax(0.2, 1.0 - 0.02 * K.pymax(0.0, t_surf - t_cpu))
            pumped = p["tec_pump_w"] * eff
            headroom = K.pymax(0.0, K.pymin(1.0, (t_cpu - 25.0) / 5.0))
            pumped = pumped * headroom
            inj_cpu = np.where(st.tec_on, cpu_w + (-pumped), cpu_w)
            inj_surf = np.where(st.tec_on,
                                surf_w + (pumped + p["tec_drive_w"]), surf_w)
            tec_mask = reg & st.tec_on
            st.tec_on_time_s = np.where(tec_mask, st.tec_on_time_s + dt,
                                        st.tec_on_time_s)
            st.tec_energy_j = np.where(
                tec_mask, st.tec_energy_j + p["tec_drive_w"] * dt,
                st.tec_energy_j)
        self._thermal(np.where(reg, thermal_counts, 0), dt,
                      [inj_cpu, heat3 / dt, inj_surf, 0.0])
        st.cell_temp_c = np.where(reg, st.node_temps[1], st.cell_temp_c)
        st.clock_s = W(st.clock_s + dt, st.clock_s)

        # Harness accounting (the run_discharge_cycle locals).
        st.energy_j = W(st.energy_j + delivered_j, st.energy_j)
        # A single pack serves no rail (served_by is None).
        reg_dual = reg & self._dual
        on_big = reg_dual & active2
        on_little = reg_dual ^ on_big
        st.big_time_s = np.where(on_big, st.big_time_s + dt, st.big_time_s)
        st.little_time_s = np.where(on_little, st.little_time_s + dt,
                                    st.little_time_s)
        tc2 = st.node_temps[0]
        hotter = reg & (tc2 > st.max_temp_c)
        st.max_temp_c = np.where(hotter, tc2, st.max_temp_c)
        hot = reg & (tc2 >= thr)
        if np.count_nonzero(hot):
            self.branch_steps["hot"] += 1
            st.hot_time_s = np.where(hot, st.hot_time_s + dt, st.hot_time_s)

        # Deaths: both cells empty after a shortfall, or too many
        # brownouts.
        dep_post = st.avail <= 1e-9
        died = reg & dep_post[0] & dep_post[1]
        if np.count_nonzero(died):
            self.branch_steps["empty"] += 1
            sf = (clamp | (delivered_w < bp * (1.0 - 1e-9))
                  | (voltage < cutoff_a))
            died &= np.where(zero, False, np.where(dep_pre, True, sf))
        brown = reg & (delivered_j < demand_j * 0.98)
        if np.count_nonzero(brown):
            self.branch_steps["brownout"] += 1
            brown &= ~died & (demand_j > 0.0)
            st.brownouts = st.brownouts + brown
            died |= brown & (st.brownouts >= p["brownout_limit"])
        if np.count_nonzero(died):
            st.alive = st.alive & ~died

        # -- Exact scalar fallback for irregular rows -----------------
        voltage_final = voltage
        power_final = total_w
        if any_irregular:
            voltage_final = voltage.copy()
            power_final = total_w.copy()
            for r in np.nonzero(irregular)[0]:
                self._fallback_row(int(r), segi, dt, voltage_final,
                                   power_final)

        # -- Step bookkeeping + recording -----------------------------
        st.steps_run = st.steps_run + run
        t_end = starts + dt
        st.service_time_s = np.where(run, t_end, st.service_time_s)
        if j in self._last_steps:
            st.alive = st.alive & ~(run & ((j + 1) >= self.n_steps))

        rec = run
        if not self._record_all:
            rec = run & ((st.steps_run % p["record_every"]) == 0)
            if not np.count_nonzero(rec):
                return
        charge = st.avail + st.bound
        soc = (charge[BIG_SLOT] + charge[LITTLE_SLOT]) / p["cap_total"]
        if self._any_single:
            soc = np.where(single, K.state_of_charge(
                st.avail[BIG_SLOT], st.bound[BIG_SLOT], p["cap"][BIG_SLOT]),
                soc)
        if rec is run and all_run:
            # Every row records: the step's own arrays are the sample
            # (none is written again), the node temperature is copied.
            self._snapshots.append((rows, t_end, soc, st.node_temps[0].copy(),
                                    power_final, voltage_final))
            return
        sel = np.nonzero(rec)[0]
        self._snapshots.append(
            (sel, t_end[sel], soc[sel], st.node_temps[0][sel],
             power_final[sel], voltage_final[sel]))

    # ------------------------------------------------------------------
    # Physics helpers: one masked substep loop per kernel
    # ------------------------------------------------------------------
    # Each row takes its own substep count (and h = dt / count); a row
    # outside ``mask`` gets count 0, so the kernel leaves it frozen.
    def _wells(self, y1, y2, cur, dt, c, k, cap, mask):
        counts = np.where(mask, K.well_substeps_capped(dt, cap), 0)
        return K.step_wells(y1, y2, cur, dt / np.maximum(counts, 1),
                            counts, c, k)

    def _thermal(self, counts, dt, injections) -> None:
        from ..thermal.conduction import euler_conduction

        st = self.state
        st.node_temps = euler_conduction(
            st.node_temps, injections, self.links, self.actives, counts,
            dt / np.maximum(counts, 1))

    # ------------------------------------------------------------------
    # Exact scalar fallback
    # ------------------------------------------------------------------
    def _fallback_row(self, r: int, segi, dt, voltage_final,
                      power_final) -> None:
        """Replay row ``r``'s step through its persistent Phone."""
        self.fallback_steps += 1
        st = self.state
        p = self.p
        phone = self.phones[r]
        pack = phone.pack
        sched = self.schedules[r]

        single = bool(self._single[r])
        cells = slot_cells(pack)

        # Push: arrays -> objects (post-Phase-A state).
        for slot, cell in cells:
            cell._available = float(st.avail[slot, r])
            cell._bound = float(st.bound[slot, r])
            cell._v_transient = float(st.vtrans[slot, r])
            cell._throughput = float(st.throughput[slot, r])
            cell.temperature_c = float(st.cell_temp_c[r])
        if not single:
            sw = pack.switch
            sw._active = _BIG if st.active_big[r] else _LITTLE
            sw._last_switch_time = float(st.last_switch_s[r])
            sw._energy_spent_j = float(st.sw_energy_spent_j[r])
            sw._heat_emitted_j = float(st.sw_heat_pending_j[r])
            sw._pending_energy_j = float(st.sw_energy_pending_j[r])
            sw._events = []
            if pack.supercap is not None:
                pack.supercap._voltage = float(st.supercap_v[r])
        tec = phone.tec
        tec._on = bool(st.tec_on[r])
        tec._on_time_s = float(st.tec_on_time_s[r])
        tec._energy_j = float(st.tec_energy_j[r])
        for ni, name in enumerate(NODE_NAMES):
            phone.thermal.set_temperature(name,
                                          float(st.node_temps[ni][r]))
        phone.clock_s = float(st.clock_s[r])

        demand = sched.segments[int(segi[r])].demand
        step_dt = float(dt[r])
        outcome = phone.step(demand, step_dt)

        # Pull: objects -> arrays.
        for slot, cell in cells:
            st.avail[slot, r] = cell._available
            st.bound[slot, r] = cell._bound
            st.vtrans[slot, r] = cell._v_transient
            st.throughput[slot, r] = cell._throughput
        st.cell_temp_c[r] = cells[0][1].temperature_c
        if not single:
            st.active_big[r] = sw.active is _BIG
            st.last_switch_s[r] = sw._last_switch_time
            st.switch_events[r] += len(sw._events)
            st.sw_energy_spent_j[r] = sw._energy_spent_j
            st.sw_heat_pending_j[r] = sw._heat_emitted_j
            st.sw_energy_pending_j[r] = sw._pending_energy_j
            if pack.supercap is not None:
                st.supercap_v[r] = pack.supercap._voltage
        st.tec_on_time_s[r] = tec.on_time_s
        st.tec_energy_j[r] = tec.energy_used_j
        for ni, name in enumerate(NODE_NAMES):
            st.node_temps[ni][r] = phone.thermal.temperature(name)
        st.clock_s[r] = phone.clock_s

        # Harness accounting, exactly the scalar loop body.
        st.energy_j[r] = float(st.energy_j[r]) + outcome.energy_j
        if outcome.served_by is _BIG:
            st.big_time_s[r] = float(st.big_time_s[r]) + step_dt
        elif outcome.served_by is _LITTLE:
            st.little_time_s[r] = float(st.little_time_s[r]) + step_dt
        if outcome.cpu_temp_c > float(st.max_temp_c[r]):
            st.max_temp_c[r] = outcome.cpu_temp_c
        if outcome.cpu_temp_c >= float(p["thr_threshold_c"][r]):
            st.hot_time_s[r] = float(st.hot_time_s[r]) + step_dt
        voltage_final[r] = outcome.voltage_v
        power_final[r] = outcome.demand_w
        if outcome.shortfall and pack.depleted:
            st.alive[r] = False
        else:
            demanded_j = outcome.demand_w * step_dt
            if demanded_j > 0 and outcome.energy_j < demanded_j * 0.98:
                st.brownouts[r] += 1
                if st.brownouts[r] >= int(p["brownout_limit"][r]):
                    st.alive[r] = False

    # ------------------------------------------------------------------
    # Result assembly
    # ------------------------------------------------------------------
    def results(self) -> List[DischargeResult]:
        """Per-row :class:`DischargeResult`, scalar-identical fields."""
        if self._results is not None:
            return self._results
        st = self.state
        n = self.n

        # Snapshots are chronological and hold each row at most once,
        # so a stable sort by row leaves every row's samples in time
        # order: the same sequence the scalar engine records one by one.
        rows, *columns = ([np.concatenate(col)
                           for col in zip(*self._snapshots)]
                          or [np.empty(0)] * 6)
        order = np.argsort(rows, kind="stable")
        t, soc, cpu, pw, vv = (col[order] for col in columns)
        bounds = np.searchsorted(rows[order], np.arange(n + 1))

        out: List[DischargeResult] = []
        for i, dev in enumerate(self.spec.devices):
            metrics = MetricsRecorder()
            rs = slice(bounds[i], bounds[i + 1])
            metrics.record_many("soc", t[rs], soc[rs])
            metrics.record_many("cpu_temp_c", t[rs], cpu[rs])
            metrics.record_many("power_w", t[rs], pw[rs])
            metrics.record_many("voltage_v", t[rs], vv[rs])
            out.append(DischargeResult(
                policy_name=self.policies[i].name,
                workload_name=dev.trace.name,
                service_time_s=float(st.service_time_s[i]),
                energy_delivered_j=float(st.energy_j[i]),
                switch_count=int(st.switch_events[i]),
                big_time_s=float(st.big_time_s[i]),
                little_time_s=float(st.little_time_s[i]),
                tec_on_time_s=float(st.tec_on_time_s[i]),
                tec_energy_j=float(st.tec_energy_j[i]),
                max_cpu_temp_c=float(st.max_temp_c[i]),
                time_above_threshold_s=float(st.hot_time_s[i]),
                metrics=metrics,
                step_count=int(st.steps_run[i]),
                wall_time_s=0.0,
            ))
        self._results = out
        return out
