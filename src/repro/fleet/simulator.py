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

import os
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
from .state import FleetState
from . import capman as _capman  # noqa: F401  (registers VectorCapmanDriver)

__all__ = ["FleetSimulator"]

#: Env var read by :meth:`FleetSimulator.run_sharded` when the caller
#: does not pass an explicit shard count.
SHARDS_ENV = "CAPMAN_FLEET_SHARDS"

_BIG = BatterySelection.BIG
_LITTLE = BatterySelection.LITTLE


def _run_shard(devices):
    """Worker body for :meth:`FleetSimulator.run_sharded`.

    Rebuilds the shard from its ``DeviceSpec`` rows -- the exact
    construction the parent performed, so results are bitwise those of
    the corresponding rows of an unsharded run -- and returns the
    results plus the shard's work counters.
    """
    from .spec import FleetSpec

    sim = FleetSpec(list(devices)).build()
    results = sim.run()
    return results, {
        "fallback_steps": sim.fallback_steps,
        "table_compiles": sim.table_compiles,
        "trajectory_dedupe_hits": sim.trajectory_dedupe_hits,
    }


def _can_serve(dep, maxp, tv, avail, p, dt):
    """Vector twin of ``BigLittlePack._can_serve`` (same float ops)."""
    i_est = p / K.pymax(tv, 1.0)
    ok = (~(maxp < p)) & (avail > i_est * dt * 1.05)
    return ~dep & ((p <= 0.0) | ok)


class FleetSimulator:
    """Advances a fleet built by :meth:`repro.fleet.spec.FleetSpec.build`."""

    def __init__(self, spec, phones, policies, schedules, params,
                 base_tbl, cpu_tbl, n_steps, topology) -> None:
        self.spec = spec
        self.phones = phones
        self.policies = policies
        self.schedules = schedules
        self.p: Dict[str, np.ndarray] = params
        self.base_tbl = base_tbl
        self.cpu_tbl = cpu_tbl
        self.n_steps = n_steps
        self.max_steps = int(n_steps.max())
        # topology: (names, index_links, (index, capacity) actives, substep)
        self.links = topology[1]
        self.actives = topology[2]
        self.thermal_sub = topology[3]

        self.n = len(phones)
        self.state = initial_state_from_phones(phones)
        self._rows = np.arange(self.n)
        self._single = params["single"]
        self._dual = ~self._single

        # Group rows by shared schedule for per-step column assembly.
        by_sched: Dict[int, List[int]] = {}
        uniq: Dict[int, object] = {}
        for i, sched in enumerate(schedules):
            by_sched.setdefault(id(sched), []).append(i)
            uniq[id(sched)] = sched
        self.groups = [(uniq[key], np.asarray(rows, dtype=np.int64))
                       for key, rows in by_sched.items()]

        # Partition rows into per-type vector drivers + scalar adapter.
        self.drivers, self.rows_adapted = make_decision_drivers(
            policies, schedules, self)
        self.rows_vectorised = self.n - self.rows_adapted

        # Reused per-step columns.
        self._starts = np.zeros(self.n, dtype=np.float64)
        self._dts = np.ones(self.n, dtype=np.float64)
        self._segi = np.zeros(self.n, dtype=np.int64)

        #: ``(rows, t, soc, cpu, power, voltage)`` snapshots for metrics.
        self._snapshots: List[Tuple] = []
        self._results: Optional[List[DischargeResult]] = None
        #: Rows replayed through the scalar fallback, for diagnostics.
        self.fallback_steps = 0
        #: Counters merged back from worker shards (see run_sharded).
        self._shard_counters: Dict[str, int] = {}
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

    def run_sharded(self, shards: Optional[int] = None
                    ) -> List[DischargeResult]:
        """Row-shard the batch across worker processes.

        Rows are independent (the hypothesis property suite proves it),
        so each contiguous shard is rebuilt from its ``DeviceSpec``
        rows inside a worker, run to completion, and the concatenated
        results are byte-equal to :meth:`run`'s, row for row.

        ``shards=None`` reads the ``CAPMAN_FLEET_SHARDS`` env var
        (default 1); a count of 1 (or a single-row fleet) runs
        :meth:`run` in-process.  Work counters (``fallback_steps``,
        ``table_compiles``, ``trajectory_dedupe_hits``) are aggregated
        from the shards -- note dedupe only applies *within* a shard,
        so a sharded run may report fewer dedupe hits than an
        in-process one.  The parent simulator's per-step state is left
        untouched; only the results and counters come back.
        """
        if shards is None:
            raw = os.environ.get(SHARDS_ENV, "1").strip() or "1"
            shards = int(raw)
        shards = max(1, min(int(shards), self.n))
        if shards == 1:
            return self.run()
        if self._results is not None:
            return self._results

        from concurrent.futures import ProcessPoolExecutor

        chunks = [tuple(self.spec.devices[int(i)] for i in idx)
                  for idx in np.array_split(np.arange(self.n), shards)
                  if len(idx)]
        results: List[DischargeResult] = []
        for key in ("fallback_steps", "table_compiles",
                    "trajectory_dedupe_hits"):
            self._shard_counters.setdefault(key, 0)
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            for shard_results, counters in pool.map(_run_shard, chunks):
                results.extend(shard_results)
                for key, value in counters.items():
                    self._shard_counters[key] += value
        self.fallback_steps += self._shard_counters.pop("fallback_steps")
        self._results = results
        self._export_counters()
        return results

    @property
    def steps_total(self) -> int:
        """Device-steps executed so far (the throughput numerator)."""
        return int(self.state.steps_run.sum())

    @property
    def table_compiles(self) -> int:
        """CAPMAN replan-boundary solves performed."""
        return self._work_counter("table_compiles")

    @property
    def trajectory_dedupe_hits(self) -> int:
        """CAPMAN rows that shared another row's learned trajectory."""
        return self._work_counter("trajectory_dedupe_hits")

    def _work_counter(self, name: str) -> int:
        """Driver work counter, attributed to whoever did the work.

        After :meth:`run_sharded` the results came from the worker
        shards, whose drivers did all the solving; the parent's own
        (never-stepped) drivers would double-count -- their build-time
        dedupe tally describes a batch that never ran.
        """
        if self._shard_counters:
            return self._shard_counters.get(name, 0)
        return sum(getattr(d, name, 0) for d in self.drivers)

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
        reg.counter("fleet.trajectory_dedupe_hits").inc(
            self.trajectory_dedupe_hits)

    # ------------------------------------------------------------------
    # One lockstep control step
    # ------------------------------------------------------------------
    def step(self, j: int) -> None:
        st = self.state
        p = self.p
        rows = self._rows

        # -- Column assembly ------------------------------------------
        starts, dts_col, segi = self._starts, self._dts, self._segi
        for sched, grp in self.groups:
            if j < sched.n_steps:
                starts[grp] = sched.starts[j]
                dts_col[grp] = sched.dts[j]
                segi[grp] = sched.seg_of_step[j]
        run = st.alive & (j < self.n_steps)
        if not run.any():
            st.alive[:] = False
            return
        dt = np.where(run, dts_col, 1.0)
        base_w = self.base_tbl[rows, segi]
        cpu_w = self.cpu_tbl[rows, segi]

        # -- Phase A: observe, decide, select, thermostat -------------
        single, dual = self._single, self._dual
        soc_b = K.state_of_charge(st.avail_b, st.bound_b, p["cap_b"])
        soc_l = K.state_of_charge(st.avail_l, st.bound_l, p["cap_l"])
        t_cpu = st.node_temps[0]
        t_surf = st.node_temps[2]

        # A single pack shows its one cell's SoC as both SoCs.
        choices = np.full(self.n, CHOICE_NONE, dtype=np.int8)
        obs = StepObservation(j=j, run=run, starts=starts, dts=dt,
                              segi=segi, soc_big=soc_b,
                              soc_little=np.where(single, soc_b, soc_l),
                              cpu_temp=t_cpu, surf_temp=t_surf,
                              active_big=st.active_big, base_w=base_w)
        for driver in self.drivers:
            driver.decide(obs, choices)

        dep_b = st.avail_b <= 1e-9
        dep_l = st.avail_l <= 1e-9

        # pack.select: depleted-target fallback, then switch.request
        # (Phone.select_battery is a no-op on single packs).
        has = run & dual & (choices >= 0)
        tgt_big = choices == CHOICE_BIG
        dep_t = np.where(tgt_big, dep_b, dep_l)
        dep_o = np.where(tgt_big, dep_l, dep_b)
        tgt_big = np.where(dep_t & ~dep_o, ~tgt_big, tgt_big)
        dwell_ok = ~((st.clock_s - st.last_switch_s) < p["sw_dwell_s"])
        commit = has & (tgt_big != st.active_big) & dwell_ok
        st.active_big = np.where(commit, tgt_big, st.active_big)
        st.last_switch_s = np.where(commit, st.clock_s, st.last_switch_s)
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
        fall = st.thermo_on & (t_cpu < thr - p["thr_hysteresis_k"])
        new_on = np.where(rise, True, np.where(fall, False, st.thermo_on))
        st.thermo_on = np.where(upd, new_on, st.thermo_on)
        st.tec_on = np.where(upd, new_on, st.tec_on)

        # -- Phase B: pack.draw + thermal, functional candidates ------
        total_w = base_w + np.where(st.tec_on, p["tec_drive_w"], 0.0)

        # Pre-draw electrical observations, both cells.
        ocv_b = K.ocv(soc_b, p["cutoff_b"], p["full_b"])
        ocv_l = K.ocv(soc_l, p["cutoff_l"], p["full_l"])
        r_b = K.internal_resistance(soc_b, st.cell_temp_c, p["r0_b"],
                                    p["tc_b"])
        r_l = K.internal_resistance(soc_l, st.cell_temp_c, p["r0_l"],
                                    p["tc_l"])
        veff_b = ocv_b - st.vtrans_b
        veff_l = ocv_l - st.vtrans_l
        maxp_b = K.max_power(veff_b, r_b, p["imax_b"])
        maxp_l = K.max_power(veff_l, r_l, p["imax_l"])
        # terminal_voltage(0.0) == ocv - 0.0*r - vt == veff bitwise.
        cs_b = _can_serve(dep_b, maxp_b, veff_b, st.avail_b, total_w, dt)
        cs_l = _can_serve(dep_l, maxp_l, veff_l, st.avail_l, total_w, dt)

        act = st.active_big
        cs_act = np.where(act, cs_b, cs_l)
        cs_idl = np.where(act, cs_l, cs_b)
        dep_act = np.where(act, dep_b, dep_l)
        dep_idl = np.where(act, dep_l, dep_b)

        # Pre-draw failover (pack.draw step 1) -- candidates only; the
        # scalar fallback re-runs this for irregular rows.  The dwell
        # guard must see the post-Phase-A switch time: a select commit
        # this step resets the dwell clock.
        want = run & dual & ~cs_act & (cs_idl | (dep_act & ~dep_idl))
        dwell_ok2 = ~((st.clock_s - st.last_switch_s) < p["sw_dwell_s"])
        fail_commit = want & dwell_ok2
        active2 = st.active_big ^ fail_commit
        last2 = np.where(fail_commit, st.clock_s, st.last_switch_s)
        nev2 = st.switch_events + fail_commit
        esp2 = np.where(fail_commit, st.sw_energy_spent_j + p["sw_energy_j"],
                        st.sw_energy_spent_j)
        hacc2 = np.where(fail_commit, st.sw_heat_pending_j + p["sw_heat_j"],
                         st.sw_heat_pending_j)

        heat = hacc2  # switch.take_heat_j()
        unbilled = esp2 - st.sw_energy_pending_j  # switch.take_energy_j()
        overhead_w = unbilled / dt
        gross = total_w + overhead_w

        # Supercap filter on the LITTLE rail (single rows stay on BIG).
        sc_rows = run & ~active2 & p["has_sc"]
        sc_batt, sc_capj, sc_heat, sc_v2 = K.supercap_smooth(
            gross, dt, st.supercap_v, p["sc_cap_f"], p["sc_rated_v"],
            p["sc_esr"], p["sc_refill_w"])
        battery_power = np.where(sc_rows, sc_batt, gross)
        cap_j = np.where(sc_rows, sc_capj, 0.0)
        heat2 = np.where(sc_rows, heat + sc_heat, heat)
        scv2 = np.where(sc_rows, sc_v2, st.supercap_v)

        # Active-cell draw (cell.draw_power), gathered by active2.
        def A(b, l):
            return np.where(active2, b, l)

        veff_a = A(veff_b, veff_l)
        r_a = A(r_b, r_l)
        imax_a = A(p["imax_b"], p["imax_l"])
        dep_pre = A(dep_b, dep_l)
        avail_a = A(st.avail_b, st.avail_l)
        bound_a = A(st.bound_b, st.bound_l)

        bp = battery_power
        zero = bp == 0.0
        main = run & ~zero & ~dep_pre

        cur_raw = K.current_for_power(bp, veff_a, r_a)
        clamp = cur_raw > imax_a
        current = np.where(clamp, imax_a, cur_raw)
        sf = clamp.copy()
        delivered_w = K.pymin(bp, K.pymax(0.0, current *
                                          (veff_a - current * r_a)))
        sf |= delivered_w < bp * (1.0 - 1e-9)
        i_sus = K.sustainable_current(bound_a, A(p["c_b"], p["c_l"]),
                                      A(p["k_b"], p["k_l"]))
        eta = A(p["coul_b"], p["coul_l"]) * (
            1.0 - K.rate_loss(current, i_sus, A(p["rl_b"], p["rl_l"])))
        drawn = current / eta
        cur_eff = np.where(main, current, 0.0)
        drawn_eff = np.where(main, drawn, 0.0)
        partial = main & (drawn * dt > avail_a)

        # KiBaM wells, both cells (active draws, idle rests).
        cur_b = np.where(active2, drawn_eff, 0.0)
        cur_l = np.where(active2, 0.0, drawn_eff)
        y1b, y2b = self._wells(st.avail_b, st.bound_b, cur_b, dt,
                               p["c_b"], p["k_b"], run)
        y1l, y2l = self._wells(st.avail_l, st.bound_l, cur_l, dt,
                               p["c_l"], p["k_l"], run)

        # RC transient branch, both cells.
        tr_b = np.where(active2, cur_eff, 0.0)
        tr_l = np.where(active2, 0.0, cur_eff)
        alpha_b = np.exp(-dt / p["tau_b"])
        alpha_l = np.exp(-dt / p["tau_l"])
        vtb2 = K.step_transient(st.vtrans_b, tr_b, p["r1_b"], alpha_b)
        vtl2 = K.step_transient(st.vtrans_l, tr_l, p["r1_l"], alpha_l)

        # Post-step terminal voltage, heat and energy of the draw.
        soc_a2 = K.state_of_charge(A(y1b, y1l), A(y2b, y2l),
                                   A(p["cap_b"], p["cap_l"]))
        ocv_a2 = K.ocv(soc_a2, A(p["cutoff_b"], p["cutoff_l"]),
                       A(p["full_b"], p["full_l"]))
        r_a2 = K.internal_resistance(soc_a2, st.cell_temp_c,
                                     A(p["r0_b"], p["r0_l"]),
                                     A(p["tc_b"], p["tc_l"]))
        voltage = ocv_a2 - cur_eff * r_a2 - A(vtb2, vtl2)
        sf |= voltage < A(p["cutoff_b"], p["cutoff_l"])
        ohmic = cur_eff * cur_eff * r_a2 * dt
        parasitic = (drawn_eff - cur_eff) * K.pymax(voltage, 0.0) * dt
        heat_cell = np.where(main, ohmic + parasitic, 0.0)
        energy_cell = np.where(main, delivered_w * dt, 0.0)
        sf_cell = np.where(zero, False, np.where(dep_pre, True, sf))
        heat3 = heat2 + heat_cell

        # Rail accounting (pack.draw step 5); a single pack delivers
        # the cell's energy as is.
        load_share = np.where(cap_j > 0.0, bp, K.pymin(gross, bp))
        bp_pos = bp > 0.0
        served_frac = np.where(
            bp_pos, energy_cell / np.where(bp_pos, bp * dt, 1.0), 1.0)
        rail_j = load_share * dt * served_frac + cap_j
        delivered_j = np.where(
            single, energy_cell,
            K.pymin(total_w * dt, K.pymax(0.0, rail_j - overhead_w * dt)))
        deficit = total_w * dt - delivered_j

        # Mid-step deficit failover check against the *pre-step* idle
        # cell (scalar evaluates it before idle.rest runs).
        maxp_idl = np.where(active2, maxp_l, maxp_b)
        veff_idl = np.where(active2, veff_l, veff_b)
        dep_idl2 = np.where(active2, dep_l, dep_b)
        avail_idl = np.where(active2, st.avail_l, st.avail_b)
        can_idle = _can_serve(dep_idl2, maxp_idl, veff_idl, avail_idl,
                              deficit / dt, dt)
        failover = run & dual & (deficit > 1e-9) & can_idle
        irregular = partial | failover
        reg = run & ~irregular

        # -- Commit Phase B for regular rows --------------------------
        def W(new, old):
            return np.where(reg, new, old)

        st.avail_b = W(y1b, st.avail_b)
        st.bound_b = W(y2b, st.bound_b)
        st.avail_l = W(y1l, st.avail_l)
        st.bound_l = W(y2l, st.bound_l)
        st.vtrans_b = W(vtb2, st.vtrans_b)
        st.vtrans_l = W(vtl2, st.vtrans_l)
        st.throughput_b = W(st.throughput_b + tr_b * dt, st.throughput_b)
        st.throughput_l = W(st.throughput_l + tr_l * dt, st.throughput_l)
        st.active_big = np.where(reg, active2, st.active_big)
        st.last_switch_s = W(last2, st.last_switch_s)
        st.switch_events = np.where(reg, nev2, st.switch_events)
        st.sw_energy_spent_j = W(esp2, st.sw_energy_spent_j)
        st.sw_heat_pending_j = W(0.0, st.sw_heat_pending_j)
        st.sw_energy_pending_j = W(esp2, st.sw_energy_pending_j)
        st.supercap_v = W(scv2, st.supercap_v)

        # Thermal network (phone.step tail), regular rows only.
        other_w = K.pymax(0.0, base_w - cpu_w)
        eff = K.pymax(0.2, 1.0 - 0.02 * K.pymax(0.0, t_surf - t_cpu))
        pumped = p["tec_pump_w"] * eff
        headroom = K.pymax(0.0, K.pymin(1.0, (t_cpu - 25.0) / 5.0))
        pumped = pumped * headroom
        inj_cpu = np.where(st.tec_on, cpu_w + (-pumped), cpu_w)
        inj_batt = heat3 / dt
        surf0 = other_w * 0.6
        inj_surf = np.where(st.tec_on, surf0 + (pumped + p["tec_drive_w"]),
                            surf0)
        tec_mask = reg & st.tec_on
        st.tec_on_time_s = np.where(tec_mask, st.tec_on_time_s + dt,
                                    st.tec_on_time_s)
        st.tec_energy_j = np.where(
            tec_mask, st.tec_energy_j + p["tec_drive_w"] * dt,
            st.tec_energy_j)
        self._thermal(reg, dt, [inj_cpu, inj_batt, inj_surf, 0.0])
        st.cell_temp_c = np.where(reg, st.node_temps[1], st.cell_temp_c)
        st.clock_s = np.where(reg, st.clock_s + dt, st.clock_s)

        # Harness accounting (the run_discharge_cycle locals).
        st.energy_j = W(st.energy_j + delivered_j, st.energy_j)
        # A single pack serves no rail (served_by is None).
        reg_dual = reg & dual
        st.big_time_s = np.where(reg_dual & active2, st.big_time_s + dt,
                                 st.big_time_s)
        st.little_time_s = np.where(reg_dual & ~active2,
                                    st.little_time_s + dt, st.little_time_s)
        tc2 = st.node_temps[0]
        hotter = reg & (tc2 > st.max_temp_c)
        st.max_temp_c = np.where(hotter, tc2, st.max_temp_c)
        hot = reg & (tc2 >= thr)
        st.hot_time_s = np.where(hot, st.hot_time_s + dt, st.hot_time_s)

        dep_b_post = st.avail_b <= 1e-9
        dep_l_post = st.avail_l <= 1e-9
        died1 = reg & sf_cell & dep_b_post & dep_l_post
        demanded = total_w * dt
        brown = (reg & ~died1 & (demanded > 0.0) &
                 (delivered_j < demanded * 0.98))
        st.brownouts = st.brownouts + brown
        died2 = brown & (st.brownouts >= p["brownout_limit"])
        st.alive = st.alive & ~(died1 | died2)

        # -- Exact scalar fallback for irregular rows -----------------
        voltage_final = voltage
        power_final = total_w
        if irregular.any():
            voltage_final = voltage.copy()
            power_final = total_w.copy()
            for r in np.nonzero(irregular)[0]:
                self._fallback_row(int(r), segi, dt, voltage_final,
                                   power_final)

        # -- Step bookkeeping + recording -----------------------------
        st.steps_run = st.steps_run + run
        t_end = starts + dt
        st.service_time_s = np.where(run, t_end, st.service_time_s)
        st.alive = st.alive & ~(run & ((j + 1) >= self.n_steps))

        rec = run & ((st.steps_run % p["record_every"]) == 0)
        if rec.any():
            sel = np.nonzero(rec)[0]
            soc = np.where(
                single, K.state_of_charge(st.avail_b, st.bound_b, p["cap_b"]),
                ((st.avail_b + st.bound_b) + (st.avail_l + st.bound_l))
                / p["cap_total"])
            self._snapshots.append(
                (sel, t_end[sel], soc[sel], st.node_temps[0][sel],
                 power_final[sel], voltage_final[sel]))

    # ------------------------------------------------------------------
    # Grouped physics helpers (rows batched by shared substep count)
    # ------------------------------------------------------------------
    def _wells(self, y1, y2, cur, dt, c, k, mask):
        counts = K.well_substeps_array(dt, c, k)
        ny1, ny2 = y1.copy(), y2.copy()
        for n in np.unique(counts[mask]):
            m = mask & (counts == n)
            steps = int(n)
            r1, r2 = K.step_wells(y1[m], y2[m], cur[m], dt[m] / steps,
                                  steps, c[m], k[m])
            ny1[m] = r1
            ny2[m] = r2
        return ny1, ny2

    def _thermal(self, mask, dt, injections) -> None:
        from ..thermal.conduction import euler_conduction

        if not mask.any():
            return
        st = self.state
        counts = np.minimum(
            np.maximum(np.ceil(dt / self.thermal_sub), 1.0),
            100_000.0).astype(np.int64)
        new_temps = [t.copy() for t in st.node_temps]
        for n in np.unique(counts[mask]):
            m = mask & (counts == n)
            steps = int(n)
            temps = [t[m] for t in st.node_temps]
            inj = [col[m] if isinstance(col, np.ndarray) else col
                   for col in injections]
            out = euler_conduction(temps, inj, self.links, self.actives,
                                   steps, dt[m] / steps)
            for i in range(len(new_temps)):
                new_temps[i][m] = out[i]
        st.node_temps = new_temps

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
        for tag, cell in cells:
            cell._available = float(getattr(st, f"avail_{tag}")[r])
            cell._bound = float(getattr(st, f"bound_{tag}")[r])
            cell._v_transient = float(getattr(st, f"vtrans_{tag}")[r])
            cell._throughput = float(getattr(st, f"throughput_{tag}")[r])
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
        for tag, cell in cells:
            getattr(st, f"avail_{tag}")[r] = cell._available
            getattr(st, f"bound_{tag}")[r] = cell._bound
            getattr(st, f"vtrans_{tag}")[r] = cell._v_transient
            getattr(st, f"throughput_{tag}")[r] = cell._throughput
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
