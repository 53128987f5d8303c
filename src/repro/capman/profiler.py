"""Profile & Monitor: building the scheduling MDP from observations.

Paper Section IV ("Profile and Monitor"): CAPMAN abstracts software
patterns into device power states connected by system calls, with
power per state profiled offline (Table III).  This module turns an
observed stream of (device state, system call) events into:

* a *decision MDP* -- states are (device-state, battery) pairs, the
  two actions are "serve from big" / "serve from LITTLE", transitions
  follow the empirical next-device-state distribution, and rewards
  score each choice with the battery cost model; this is what the
  online scheduler solves;
* a *syscall MDP* -- the full paper-style formulation whose actions
  are (system-call class, battery choice) pairs, used by the
  structural-similarity analyses (Algorithm 1 / Figure 16).
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Hashable, List, Optional, Tuple

from .. import obs
from ..battery.chemistry import BatteryRole, Chemistry, pick_big_little
from ..battery.switch import BatterySelection
from ..device.phone import DemandSlice, derive_device_state
from ..device.power import StatePowerTable
from ..device.profiles import NEXUS, PhoneProfile
from ..device.states import CpuState, ScreenState, WifiState
from ..device.syscalls import SyscallClass, SyscallVocabulary, default_vocabulary
from ..core.mdp import MDP
from ..workload.base import Segment
from ..workload.traces import Trace

__all__ = [
    "DeviceKey",
    "DecisionStateInterner",
    "device_key_of",
    "device_key_cache_info",
    "BatteryCostModel",
    "PowerProfiler",
]

#: The profiler's device abstraction: (cpu, screen, wifi) values.
DeviceKey = Tuple[str, str, str]

_CHOICES: Tuple[str, str] = ("use_big", "use_little")


@lru_cache(maxsize=8192)
def _device_key_cached(demand: DemandSlice, wifi_threshold_kbps: float) -> DeviceKey:
    state = derive_device_state(demand, tec_on=False,
                                battery=BatterySelection.BIG,
                                wifi_threshold_kbps=wifi_threshold_kbps)
    return (state.cpu.value, state.screen.value, state.wifi.value)


def device_key_of(demand: DemandSlice, wifi_threshold_kbps: float = 100.0) -> DeviceKey:
    """Map a demand slice onto the profiler's device-state key.

    The derivation is pure in (demand, threshold) and runs on every
    control step -- observation, dwell accounting, and the scheduler's
    state lookup all route through it -- so results are memoised
    (``DemandSlice`` is frozen/hashable).  ``device_key_cache_info()``
    exposes the hit/miss counters.
    """
    return _device_key_cached(demand, wifi_threshold_kbps)


def device_key_cache_info():
    """Hit/miss statistics of the memoised device-key derivation."""
    return _device_key_cached.cache_info()


def _selection_of(choice: str) -> BatterySelection:
    return BatterySelection.BIG if choice == "use_big" else BatterySelection.LITTLE


class DecisionStateInterner:
    """Interns decision-MDP states to dense integer codes.

    The decision MDP's states are ``(DeviceKey, battery.value)`` pairs
    (see :meth:`PowerProfiler.build_decision_mdp` and
    ``CapmanPolicy.decision_state``).  The fleet's batched CAPMAN
    driver flattens them to ``key_code * 2 + active_bit`` so a solved
    policy compiles into an ``(n_states,) int8`` action table and the
    per-step scheduler lookup becomes one fancy-indexing gather.

    Key codes are assigned in first-intern order and never move, so
    tables compiled at different replan epochs stay mutually
    addressable.  The active bit is 1 for the big battery, 0 for
    LITTLE, derived from the selection *value* -- the exact second
    element of the MDP state tuple.
    """

    _ACTIVE_BIT = {
        BatterySelection.BIG.value: 1,
        BatterySelection.LITTLE.value: 0,
    }

    def __init__(self) -> None:
        self._key_codes: Dict[DeviceKey, int] = {}

    @property
    def n_keys(self) -> int:
        return len(self._key_codes)

    @property
    def n_states(self) -> int:
        """Dense state-space size: every key times both batteries."""
        return 2 * len(self._key_codes)

    def key_code(self, key: DeviceKey) -> int:
        """Intern ``key``, returning its stable dense code."""
        code = self._key_codes.get(key)
        if code is None:
            code = len(self._key_codes)
            self._key_codes[key] = code
        return code

    def state_code(self, key: DeviceKey, active_big: bool) -> int:
        """Code of the (key, battery) state; interns the key."""
        return self.key_code(key) * 2 + (1 if active_big else 0)

    def state_code_of(self, state: Tuple[DeviceKey, str]) -> int:
        """Code of a raw MDP state tuple; the key must be interned.

        Raising on an unknown key is deliberate: the fleet interns
        every key of every schedule segment up front, so a miss here
        means the caller's coding drifted from the MDP's state space.
        """
        key, battery_value = state
        return self._key_codes[key] * 2 + self._ACTIVE_BIT[battery_value]


@dataclass(frozen=True)
class BatteryCostModel:
    """Scores serving a power level from a given chemistry.

    The cost mirrors the cell model's loss channels: ohmic loss
    (``I^2 R``), side-reaction loss (coulombic efficiency), and the
    quadratic overpotential loss that sets in when the draw outruns the
    bound well's replenishment -- plus the switch penalty and an
    *opportunity cost* on LITTLE-battery charge.  The opportunity term
    prices the LITTLE cell's scarce burst capability so the scheduler
    reserves it for surges instead of draining it on gentle load (the
    global capacity budgeting a per-step MDP reward cannot otherwise
    see).  Rewards map into [0, 1] via ``1 / (1 + cost / scale)``.
    """

    capacity_mah: float = 2500.0
    rail_voltage: float = 3.7
    #: Switch energy (~0.1 J) amortised over a typical ~5 s segment.
    switch_cost_w: float = 0.02
    scale_w: float = 0.35
    #: Mid-cycle derating of the bound well: the replenishment current
    #: shrinks as charge is consumed, so scheduling against the
    #: full-charge figure would under-protect the big battery late in
    #: the cycle.  0.7 plans for the typical mid-cycle point.
    well_derating: float = 0.7
    #: Reserve price on LITTLE charge (cost per watt served from it).
    little_reserve_per_w: float = 0.08

    def sustainable_current_a(self, chem: Chemistry) -> float:
        """Long-run current the bound well can replenish (A), derated."""
        capacity_as = self.capacity_mah / 1000.0 * 3600.0
        return self.well_derating * chem.kibam_k * capacity_as

    def cost_w(self, power_w: float, chem: Chemistry, switched: bool) -> float:
        """Expected loss rate (W) of serving ``power_w`` from ``chem``."""
        from ..battery.chemistry import RATE_LOSS_CAP

        if power_w < 0:
            raise ValueError("power must be non-negative")
        current = power_w / self.rail_voltage
        ohmic = current * current * chem.internal_resistance
        i_sus = self.sustainable_current_a(chem)
        if i_sus > 1e-12:
            extra = min(RATE_LOSS_CAP, chem.rate_loss_coeff * (current / i_sus) ** 2)
        else:
            extra = RATE_LOSS_CAP
        eta = chem.coulombic_efficiency * (1.0 - extra)
        parasitic = (1.0 / eta - 1.0) * power_w
        reserve = (
            self.little_reserve_per_w * power_w
            if chem.role is BatteryRole.LITTLE
            else 0.0
        )
        switch = self.switch_cost_w if switched else 0.0
        return ohmic + parasitic + reserve + switch

    def reward(self, power_w: float, chem: Chemistry, switched: bool) -> float:
        """Cost mapped into the MDP's [0, 1] reward range."""
        cost = self.cost_w(power_w, chem, switched)
        return 1.0 / (1.0 + cost / self.scale_w)


@lru_cache(maxsize=None)
def _shared_vocabulary() -> SyscallVocabulary:
    """The default vocabulary, built once and shared read-only by every
    profiler not handed its own (a fleet build makes dozens)."""
    return default_vocabulary()


class PowerProfiler:
    """Accumulates observed device-state transitions and builds MDPs."""

    def __init__(
        self,
        profile: PhoneProfile = NEXUS,
        vocabulary: Optional[SyscallVocabulary] = None,
        cost_model: Optional[BatteryCostModel] = None,
    ) -> None:
        self.profile = profile
        self.vocabulary = vocabulary or _shared_vocabulary()
        self.cost_model = cost_model or BatteryCostModel()
        #: counts[d][d'] over observed consecutive device keys.
        self._counts: Dict[DeviceKey, Counter] = defaultdict(Counter)
        #: counts keyed by (d, syscall class) for the syscall MDP.
        self._class_counts: Dict[Tuple[DeviceKey, SyscallClass], Counter] = defaultdict(Counter)
        #: measured power per device key (running mean), in W.
        self._power_sum: Dict[DeviceKey, float] = defaultdict(float)
        self._power_n: Dict[DeviceKey, int] = defaultdict(int)
        #: time spent in each device key (s), for occupancy weighting.
        self._dwell_s: Dict[DeviceKey, float] = defaultdict(float)
        self._observations = 0

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def observe_trace(self, trace: Trace) -> None:
        """Feed every consecutive segment pair of a trace."""
        segments = list(trace)
        for prev, nxt in zip(segments, segments[1:]):
            self.observe(prev, nxt)

    def observe(self, prev: Segment, nxt: Segment,
                measured_power_w: Optional[float] = None) -> None:
        """Record one transition between consecutive segments.

        ``measured_power_w`` is the monitored electrical power of the
        *new* segment; when provided it refines the per-state power
        estimate (the runtime analogue of the offline Table III
        profiling), which the reward model then prefers over the
        static table.
        """
        threshold = self.profile.wifi_model.threshold_kbps
        d_prev = device_key_of(prev.demand, threshold)
        d_next = device_key_of(nxt.demand, threshold)
        self._counts[d_prev][d_next] += 1
        if nxt.syscall is not None:
            self._class_counts[(d_prev, nxt.syscall.klass)][d_next] += 1
        if measured_power_w is not None:
            if measured_power_w < 0:
                raise ValueError("measured power must be non-negative")
            self._power_sum[d_next] += measured_power_w
            self._power_n[d_next] += 1
        self._observations += 1

    def record_dwell(self, demand: DemandSlice, dt: float) -> None:
        """Accumulate time spent under a demand (occupancy statistics)."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        key = device_key_of(demand, self.profile.wifi_model.threshold_kbps)
        self._dwell_s[key] += dt

    @property
    def n_observations(self) -> int:
        """Number of recorded transitions."""
        return self._observations

    @property
    def observed_device_keys(self) -> List[DeviceKey]:
        """All device keys seen as sources or targets."""
        keys = set(self._counts)
        for counter in self._counts.values():
            keys.update(counter)
        return sorted(keys)

    def state_power_w(self, key: DeviceKey) -> float:
        """Best power estimate for a device key (W), sans TEC.

        Prefers the monitored running mean when the key has been
        observed with power telemetry; falls back to the Table III
        state averages otherwise.
        """
        n = self._power_n.get(key, 0)
        if n > 0:
            return self._power_sum[key] / n
        table: StatePowerTable = self.profile.power_table
        cpu, screen, wifi = key
        return (
            table.cpu_mw[CpuState(cpu)]
            + table.screen_mw[ScreenState(screen)]
            + table.wifi_mw[WifiState(wifi)]
        ) / 1000.0

    # ------------------------------------------------------------------
    # Reserve-price calibration
    # ------------------------------------------------------------------
    def calibrate_reserve_price(self, little_energy_share: float = 0.5) -> float:
        """Waterfill the LITTLE battery's opportunity cost (per W).

        The LITTLE cell can carry roughly ``little_energy_share`` of a
        cycle's energy.  Allocating it optimally means serving the
        demand levels where the big battery's rate loss per watt is
        worst, until the share is spent.  The marginal state's loss
        density is then the price of LITTLE charge: the reward model
        charges it on every watt served from LITTLE, so the MDP only
        routes a state there when the avoided big-battery loss exceeds
        what the charge would be worth at the margin.
        """
        big_chem, little_chem = pick_big_little()
        base = self.cost_model
        keys = self.observed_device_keys
        if not keys:
            return base.little_reserve_per_w

        entries = []
        total_energy = 0.0
        for d in keys:
            p = self.state_power_w(d)
            if p <= 0:
                continue
            weight = self._dwell_s.get(d, 0.0)
            if weight <= 0:
                weight = float(sum(self._counts.get(d, {}).values()) or 1)
            cost_big = base.cost_w(p, big_chem, switched=False)
            little_model = BatteryCostModel(
                capacity_mah=base.capacity_mah,
                rail_voltage=base.rail_voltage,
                switch_cost_w=base.switch_cost_w,
                scale_w=base.scale_w,
                well_derating=base.well_derating,
                little_reserve_per_w=0.0,
            )
            cost_little = little_model.cost_w(p, little_chem, switched=False)
            delta_per_w = max(0.0, (cost_big - cost_little) / p)
            energy = weight * p
            entries.append((delta_per_w, energy))
            total_energy += energy
        if total_energy <= 0:
            return base.little_reserve_per_w

        entries.sort(key=lambda e: -e[0])
        budget = little_energy_share * total_energy
        spent = 0.0
        last_in = 0.0
        first_out = 0.0
        included = 0
        for i, (delta_per_w, energy) in enumerate(entries):
            if spent + energy <= budget:
                last_in = delta_per_w
                spent += energy
                included += 1
                continue
            if included == 0:
                # The worst state alone overflows the share: LITTLE
                # still serves it (partially, in reality) and nothing
                # else, so price just below it.
                last_in = delta_per_w
                if i + 1 < len(entries):
                    first_out = entries[i + 1][0]
            else:
                first_out = delta_per_w
            break
        # Price between the last state LITTLE serves and the first it
        # refuses, so the partition is reproduced by the reward model.
        return 0.5 * (last_in + first_out)

    # ------------------------------------------------------------------
    # MDP construction
    # ------------------------------------------------------------------
    def build_decision_mdp(self, calibrate: bool = True) -> MDP:
        """The 2-action battery-scheduling MDP (see module docstring).

        With ``calibrate`` (the default) the LITTLE reserve price is
        re-derived from the observed demand histogram before rewards
        are computed (see :meth:`calibrate_reserve_price`).
        """
        if not self._counts:
            raise ValueError("no observations recorded yet")
        ob = obs.session()
        span = (ob.tracer.start("profiler.build_decision_mdp")
                if ob is not None else None)
        if calibrate:
            import dataclasses

            price = self.calibrate_reserve_price()
            self.cost_model = dataclasses.replace(
                self.cost_model, little_reserve_per_w=price
            )
        big_chem, little_chem = pick_big_little()
        chem_of = {"use_big": big_chem, "use_little": little_chem}

        device_keys = self.observed_device_keys
        states: List[Hashable] = [
            (d, b.value) for d in device_keys for b in BatterySelection
        ]
        transitions: Dict[Tuple[Hashable, Hashable], Dict[Hashable, float]] = {}
        rewards: Dict[Tuple[Hashable, Hashable, Hashable], float] = {}

        for d, counter in self._counts.items():
            total = sum(counter.values())
            if total == 0:
                continue
            power = self.state_power_w(d)
            for b in BatterySelection:
                s = (d, b.value)
                for choice in _CHOICES:
                    b_next = _selection_of(choice)
                    chem = chem_of[choice]
                    # The chosen battery serves the *current* state's
                    # demand; the reward therefore scores ``power`` of
                    # ``d`` and is identical across successors.
                    r = self.cost_model.reward(
                        power, chem, switched=(b_next is not b)
                    )
                    dist: Dict[Hashable, float] = {}
                    for d_next, n in counter.items():
                        sp = (d_next, b_next.value)
                        dist[sp] = dist.get(sp, 0.0) + n / total
                        rewards[(s, choice, sp)] = r
                    transitions[(s, choice)] = dist
        if span is not None:
            span.annotate(states=len(states))
            span.finish()
            ob.registry.counter("profiler.mdp_builds").inc()
        return MDP(states, list(_CHOICES), transitions, rewards)

    def build_syscall_mdp(self) -> MDP:
        """The paper-style MDP with (syscall class, battery) actions.

        Used for the similarity / overhead analyses; its action space
        has the paper's reported order of magnitude once expanded over
        classes and battery choices.
        """
        if not self._class_counts:
            raise ValueError("no syscall-tagged observations recorded yet")
        ob = obs.session()
        span = (ob.tracer.start("profiler.build_syscall_mdp")
                if ob is not None else None)
        big_chem, little_chem = pick_big_little()
        chem_of = {
            BatterySelection.BIG: big_chem,
            BatterySelection.LITTLE: little_chem,
        }

        keys = set()
        for (d, _), counter in self._class_counts.items():
            keys.add(d)
            keys.update(counter)
        device_keys = sorted(keys)

        states: List[Hashable] = [
            (d, b.value) for d in device_keys for b in BatterySelection
        ]
        actions: List[Hashable] = []
        transitions: Dict[Tuple[Hashable, Hashable], Dict[Hashable, float]] = {}
        rewards: Dict[Tuple[Hashable, Hashable, Hashable], float] = {}

        seen_actions = set()
        for (d, klass), counter in self._class_counts.items():
            total = sum(counter.values())
            if total == 0:
                continue
            power = self.state_power_w(d)
            for b in BatterySelection:
                s = (d, b.value)
                for b_next in BatterySelection:
                    a = (klass.value, b_next.value)
                    if a not in seen_actions:
                        seen_actions.add(a)
                        actions.append(a)
                    chem = chem_of[b_next]
                    r = self.cost_model.reward(
                        power, chem, switched=(b_next is not b)
                    )
                    dist: Dict[Hashable, float] = {}
                    for d_next, n in counter.items():
                        sp = (d_next, b_next.value)
                        dist[sp] = dist.get(sp, 0.0) + n / total
                        rewards[(s, a, sp)] = r
                    transitions[(s, a)] = dist
        if span is not None:
            span.annotate(states=len(states), actions=len(actions))
            span.finish()
            ob.registry.counter("profiler.mdp_builds").inc()
        return MDP(states, actions, transitions, rewards)
