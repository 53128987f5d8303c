"""Per-step battery-choice drivers for the fleet batch.

The scalar harness asks ``policy.decide_battery(ctx)`` once per control
step.  The fleet splits the batch into driver groups: each policy type
registered in :data:`VECTOR_DRIVERS` gets one vector driver instance
covering all its rows, and every remaining row falls back to
:class:`ScalarPolicyAdapter`, which rebuilds the exact
:class:`~repro.sim.discharge.PolicyContext` the scalar loop would have
built -- all observations converted back to Python floats -- and calls
the real ``decide_battery``.

Registered vector drivers:

* :class:`VectorDualDriver` -- ``LITTLE while soc_little > 0.02 else
  BIG``, one ``np.where``.
* :class:`VectorHeuristicDriver` -- the utilisation-threshold
  hysteresis of :class:`~repro.capman.baselines.HeuristicPolicy` as a
  per-segment utilisation table plus two comparisons.
* :class:`VectorPracticeDriver` -- ``decide_battery`` always returns
  ``None``; the driver is a no-op (the choice column resets to
  ``CHOICE_NONE`` each step).
* ``VectorCapmanDriver`` (:mod:`repro.fleet.capman`) -- compiled MDP
  action tables with epoch-batched learning and shared-trajectory
  dedupe.

Registration is keyed on the *exact* type: a subclass may override
``decide_battery`` and must fall back to the adapter.

Choices are written into a shared ``(N,)`` int8 column:
``CHOICE_NONE`` (-1, policy returned ``None``), ``CHOICE_BIG`` (0) or
``CHOICE_LITTLE`` (1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..battery.switch import BatterySelection
from ..capman.baselines import DualPolicy, HeuristicPolicy, PracticePolicy
from ..sim.discharge import PolicyContext, SchedulingPolicy

__all__ = ["CHOICE_NONE", "CHOICE_BIG", "CHOICE_LITTLE",
           "StepObservation", "VectorDualDriver", "VectorHeuristicDriver",
           "VectorPracticeDriver", "ScalarPolicyAdapter",
           "VECTOR_DRIVERS", "register_vector_driver",
           "make_decision_drivers", "is_vectorisable"]

CHOICE_NONE = np.int8(-1)
CHOICE_BIG = np.int8(0)
CHOICE_LITTLE = np.int8(1)

#: ``(row, policy, schedule)`` triples, one per device in a driver.
Entry = Tuple[int, SchedulingPolicy, object]

#: Exact policy type -> driver factory ``(entries, sim) -> driver``.
VECTOR_DRIVERS: Dict[type, Callable] = {}


def register_vector_driver(*policy_types: type):
    """Class decorator registering a vector driver for policy types."""
    def deco(factory):
        for policy_type in policy_types:
            VECTOR_DRIVERS[policy_type] = factory
        return factory
    return deco


def is_vectorisable(policy: SchedulingPolicy) -> bool:
    """True when the policy type has a registered vector driver.

    Deliberately an exact-type lookup: a subclass may override
    ``decide_battery`` and must fall back to the adapter.
    """
    return type(policy) in VECTOR_DRIVERS


def make_decision_drivers(policies: Sequence[SchedulingPolicy],
                          schedules: Sequence[object], sim):
    """Partition rows into vector drivers plus the scalar adapter.

    Returns ``(drivers, n_adapted)``.  Rows sharing a registered policy
    type share one driver instance (so per-type setup -- and CAPMAN's
    trajectory dedupe -- sees the whole group); all remaining rows go
    through one :class:`ScalarPolicyAdapter`.
    """
    grouped: Dict[type, List[Entry]] = {}
    adapted: List[Entry] = []
    for i, policy in enumerate(policies):
        policy_type = type(policy)
        if policy_type in VECTOR_DRIVERS:
            grouped.setdefault(policy_type, []).append(
                (i, policy, schedules[i]))
        else:
            adapted.append((i, policy, schedules[i]))
    drivers = [VECTOR_DRIVERS[policy_type](entries, sim)
               for policy_type, entries in grouped.items()]
    if adapted:
        drivers.append(ScalarPolicyAdapter(adapted))
    return drivers, len(adapted)


@dataclass
class StepObservation:
    """Read-only view of the batch handed to decision drivers."""

    j: int                    #: lockstep global step index
    run: np.ndarray           #: rows taking a step this tick
    starts: np.ndarray        #: control-step start times (schedule clock)
    dts: np.ndarray           #: control-step lengths
    segi: np.ndarray          #: per-row segment index (into its schedule)
    soc_big: np.ndarray
    soc_little: np.ndarray
    cpu_temp: np.ndarray
    surf_temp: np.ndarray
    active_big: np.ndarray    #: current switch position
    base_w: np.ndarray        #: predicted demand power (the memo value)


@register_vector_driver(DualPolicy)
class VectorDualDriver:
    """Vectorised ``DualPolicy.decide_battery`` over its rows."""

    def __init__(self, entries: Sequence[Entry], sim=None) -> None:
        self.rows = np.asarray([row for row, _, _ in entries],
                               dtype=np.int64)

    def decide(self, obs: StepObservation, choices: np.ndarray) -> None:
        """LITTLE while its SoC holds above 2%, then BIG -- every step."""
        sel = self.rows[obs.run[self.rows]]
        if sel.size:
            choices[sel] = np.where(obs.soc_little[sel] > 0.02,
                                    CHOICE_LITTLE, CHOICE_BIG)


@register_vector_driver(PracticePolicy)
class VectorPracticeDriver:
    """``PracticePolicy.decide_battery`` always returns ``None``.

    The shared choice column resets to ``CHOICE_NONE`` each step, so
    declining to write *is* the decision.  (The simulator masks
    ``select`` off on single-battery rows anyway.)
    """

    def __init__(self, entries: Sequence[Entry], sim=None) -> None:
        self.rows = np.asarray([row for row, _, _ in entries],
                               dtype=np.int64)

    def decide(self, obs: StepObservation, choices: np.ndarray) -> None:
        return


@register_vector_driver(HeuristicPolicy)
class VectorHeuristicDriver:
    """Vectorised utilisation-threshold hysteresis.

    The scalar rule reads only ``ctx.demand.cpu_util`` and
    ``ctx.active``: on LITTLE, switch to BIG when utilisation falls
    below ``threshold - hysteresis``; on BIG, switch to LITTLE when it
    rises above ``threshold``; otherwise no opinion.  Utilisation is a
    pure per-segment quantity, so it is tabled once at build time and
    gathered by segment index each step.
    """

    def __init__(self, entries: Sequence[Entry], sim=None) -> None:
        self.rows = np.asarray([row for row, _, _ in entries],
                               dtype=np.int64)
        n = len(entries)
        max_segs = max(len(sched.segments) for _, _, sched in entries)
        self._util = np.zeros((n, max_segs), dtype=np.float64)
        self._low_thr = np.zeros(n, dtype=np.float64)
        self._high_thr = np.zeros(n, dtype=np.float64)
        for g, (_, policy, sched) in enumerate(entries):
            for si, seg in enumerate(sched.segments):
                self._util[g, si] = seg.demand.cpu_util
            # Same float subtraction the scalar rule performs per call.
            self._low_thr[g] = policy.util_threshold - policy.util_hysteresis
            self._high_thr[g] = policy.util_threshold

    def decide(self, obs: StepObservation, choices: np.ndarray) -> None:
        g = np.nonzero(obs.run[self.rows])[0]
        if not g.size:
            return
        sel = self.rows[g]
        util = self._util[g, obs.segi[sel]]
        on_big = obs.active_big[sel]
        to_little = np.where(util > self._high_thr[g],
                             CHOICE_LITTLE, CHOICE_NONE)
        to_big = np.where(util < self._low_thr[g], CHOICE_BIG, CHOICE_NONE)
        choices[sel] = np.where(on_big, to_little, to_big)


class ScalarPolicyAdapter:
    """Row-at-a-time fallback running the real policy objects."""

    def __init__(self, entries: Sequence[Entry]) -> None:
        #: ``(row, policy, schedule)`` triples, one per adapted device.
        self.entries: List[Entry] = list(entries)

    def decide(self, obs: StepObservation, choices: np.ndarray) -> None:
        j = obs.j
        for row, policy, sched in self.entries:
            if not obs.run[row]:
                continue
            seg = sched.segments[int(sched.seg_of_step[j])]
            ctx = PolicyContext(
                now_s=float(obs.starts[row]),
                demand=seg.demand,
                syscall=sched.syscalls[j],
                predicted_power_w=float(obs.base_w[row]),
                cpu_temp_c=float(obs.cpu_temp[row]),
                surface_temp_c=float(obs.surf_temp[row]),
                soc_big=float(obs.soc_big[row]),
                soc_little=float(obs.soc_little[row]),
                active=(BatterySelection.BIG if obs.active_big[row]
                        else BatterySelection.LITTLE),
                segment_start=bool(sched.seg_start[j]),
            )
            choice = policy.decide_battery(ctx)
            if choice is None:
                choices[row] = CHOICE_NONE
            elif choice is BatterySelection.BIG:
                choices[row] = CHOICE_BIG
            else:
                choices[row] = CHOICE_LITTLE
