"""Batched CAPMAN decisions: compiled MDP tables + trajectory dedupe.

The scalar :class:`~repro.capman.controller.CapmanPolicy` does four
things per control step: accumulate dwell statistics, (at segment
starts) feed the profiler and occasionally rebuild + re-solve the
decision MDP, look the current (device state, active battery) up in
the solved policy, and post-process the choice with the burst
fallback, the hot-spot LITTLE-lean, and the SoC-floor guard.  This
driver reproduces that bit-for-bit across all CAPMAN rows of a fleet
while doing per-step work proportional to *lookups*, not *solves*:

**Learning is runtime-state-independent.**  Everything the learning
path consumes -- ``ctx.demand``, ``ctx.syscall``, ``ctx.segment_start``
and ``ctx.predicted_power_w`` -- is a pure function of the row's
schedule and demand-power memo; none of it depends on the simulated
plant (SoC, temperature, switch position).  The whole sequence of
learned MDPs is therefore precomputable from (schedule content, base
power row, wifi threshold, policy learning parameters):

* replan *boundaries* are computed up front by walking the
  segment-start events with the scalar's own counters (an observation
  per event after the first; replan once ``n_observations >=
  min_observations`` and then every ``replan_interval`` observations);
* between boundaries nothing is solved -- the profiler replay is
  *epoch-batched*, bulk-adding each inter-event dwell gap (exact,
  because dwell increments are integer-valued floats) and issuing the
  ``observe`` calls one by one in scalar order (``Counter`` insertion
  order feeds ``build_decision_mdp``, so order is semantics);
* at a boundary the MDP is rebuilt and solved once per *trajectory*,
  and the solved policy is compiled into an ``(n_states,) int8``
  action table via the interned ``key_code * 2 + active_bit`` state
  coding (:class:`~repro.capman.profiler.DecisionStateInterner`).

**Rows sharing a trajectory share the solve.**  Rows whose
(schedule content, base powers, wifi threshold, capacity/rho/replan
parameters) content-hash matches would learn identical models at
identical steps, so they share one profiler replay and one table --
a homogeneous sub-fleet pays one solve instead of N
(``trajectory_dedupe_hits`` counts the rows saved).

**A solve needs only the policy.**  The table keeps the solved
policy and nothing else, so a boundary calls
:func:`~repro.core.solver.optimal_policy`: an exact policy-iteration
solve whose certificate proves it equals value iteration's policy,
and value iteration itself where the certificate refuses
(``solve_fallbacks`` counts those).

**The per-step decision is pure fancy indexing.**  The model lookup is
``tables[traj_of_row, seg_code * 2 + active_big]`` (-1 where the
policy has no opinion, exactly the scalar's "state not in
``solution.policy``" miss), and the fallback / hot-spot lean /
``_guard`` post-processing is a masked ``np.where`` chain whose
branch structure mirrors the scalar's early returns -- both guard
conditions are evaluated against the *pre-guard* choice, never
chained.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence, Tuple

import numpy as np

from ..capman.controller import SOC_FLOOR, CapmanPolicy
from ..capman.profiler import (BatteryCostModel, DecisionStateInterner,
                               PowerProfiler, device_key_of)
from ..core.online import compile_decision_table
from ..core.solver import optimal_policy
from ..thermal.hotspot import HOT_SPOT_THRESHOLD_C
from ..workload.base import Segment
from .policies import (CHOICE_BIG, CHOICE_LITTLE, Entry, StepObservation,
                       register_vector_driver)

__all__ = ["VectorCapmanDriver"]

#: MDP action labels -> fleet choice codes (anything else stays -1).
_ACTION_CODE = {"use_big": int(CHOICE_BIG), "use_little": int(CHOICE_LITTLE)}

#: ``next_replan_step`` sentinel: no further boundary for this trajectory.
_NEVER = np.int64(-1)


def _trajectory_digest(policy: CapmanPolicy, sched, profile,
                       wifi_threshold_kbps: float,
                       base_row: np.ndarray) -> str:
    """Content hash of everything the learning path consumes.

    Two rows with equal digests produce byte-identical profiler
    states and solved policies at every replan boundary, so they can
    share one learned trajectory.  ``fallback_threshold_w`` is
    deliberately absent: it only shapes the per-row fallback mask,
    never the learned model.  The profile's power table is included
    because ``state_power_w`` falls back to it for keys that were
    never observed with power telemetry (e.g. the very first segment's
    key when it never recurs as a transition target).
    """
    h = hashlib.sha256()
    h.update(np.float64(wifi_threshold_kbps).tobytes())
    h.update(np.asarray([policy.capacity_mah, policy.rho],
                        dtype=np.float64).tobytes())
    h.update(np.asarray([policy.replan_interval, policy.min_observations],
                        dtype=np.int64).tobytes())
    h.update(sched.content_fingerprint().encode())
    h.update(repr(profile.power_table).encode())
    h.update(np.ascontiguousarray(
        base_row[:len(sched.segments)]).tobytes())
    return h.hexdigest()


class _LearningTrajectory:
    """One shared CAPMAN learning replay: profiler + replan plan.

    Owns the scalar :class:`PowerProfiler` all member rows would have
    built, the precomputed segment-start events of the shared schedule,
    and the event indices at which the scalar policy would replan.
    :meth:`advance` replays profiler inputs lazily up to a boundary;
    :meth:`compile` performs the boundary's MDP rebuild + solve and
    compiles the solved policy into a dense action table.
    """

    __slots__ = ("profiler", "rho", "interner", "event_steps", "event_segs",
                 "segments", "event_syscalls", "base_row", "boundary_events",
                 "next_boundary", "_replayed")

    def __init__(self, policy: CapmanPolicy, sched, profile,
                 base_row: np.ndarray,
                 interner: DecisionStateInterner) -> None:
        # Exactly on_cycle_start's profiler construction.
        self.profiler = PowerProfiler(
            profile,
            cost_model=BatteryCostModel(capacity_mah=policy.capacity_mah),
        )
        self.rho = policy.rho
        self.interner = interner
        self.segments = sched.segments
        self.base_row = base_row
        self.event_steps = np.nonzero(sched.seg_start)[0]
        self.event_segs = sched.seg_of_step[self.event_steps]
        self.event_syscalls = [sched.syscalls[int(s)]
                               for s in self.event_steps]

        # Replan plan: event k contributes one observation for k >= 1,
        # and the scalar replans when n_observations (== k) has reached
        # min_observations and either no scheduler exists yet or
        # replan_interval observations have passed since the last one.
        boundaries: List[int] = []
        since = 0
        have_scheduler = False
        for k in range(len(self.event_steps)):
            if k > 0:
                since += 1
            if k >= policy.min_observations and (
                    not have_scheduler or since >= policy.replan_interval):
                boundaries.append(k)
                have_scheduler = True
                since = 0
        self.boundary_events = boundaries
        self.next_boundary = 0
        #: Events already fed to the profiler.
        self._replayed = 0

    def first_boundary_step(self) -> np.int64:
        if self.boundary_events:
            return np.int64(self.event_steps[self.boundary_events[0]])
        return _NEVER

    def advance(self, upto_event: int) -> None:
        """Replay profiler inputs through ``upto_event`` inclusively.

        Chronological scalar order per event: the dwell of the steps
        spent in the previous segment (bulk-added -- exact, since dwell
        totals are integer-valued floats), this event's own dwell unit,
        then the transition observation with the *predicted* power of
        the new segment as the measured sample (the scalar passes
        ``ctx.predicted_power_w`` straight through).
        """
        profiler = self.profiler
        events = self.event_steps
        for k in range(self._replayed, upto_event + 1):
            seg = self.segments[int(self.event_segs[k])]
            if k > 0:
                prev = self.segments[int(self.event_segs[k - 1])]
                gap = int(events[k]) - int(events[k - 1]) - 1
                if gap > 0:
                    profiler.record_dwell(prev.demand, float(gap))
            profiler.record_dwell(seg.demand, 1.0)
            if k > 0:
                profiler.observe(
                    Segment(prev.demand, 1.0, self.event_syscalls[k - 1]),
                    Segment(seg.demand, 1.0, self.event_syscalls[k]),
                    measured_power_w=float(
                        self.base_row[int(self.event_segs[k])]),
                )
        self._replayed = max(self._replayed, upto_event + 1)

    def compile(self) -> Tuple[np.ndarray, bool]:
        """One replan boundary: rebuild, solve, flatten to a table.

        Returns ``(table, certified)``.  ``optimal_policy(mdp, rho)``
        returns the policy of ``value_iteration(mdp, rho)``, which is
        what ``OnlineScheduler.__init__`` runs to obtain ``solution``;
        ``certified`` is False where it had to run value iteration.
        The scheduler's similarity graph is never consulted for known
        states, so the fleet skips constructing it.
        """
        mdp = self.profiler.build_decision_mdp()
        policy, certified = optimal_policy(mdp, self.rho)
        return compile_decision_table(
            policy, self.interner.state_code_of,
            self.interner.n_states, _ACTION_CODE), certified


@register_vector_driver(CapmanPolicy)
class VectorCapmanDriver:
    """Compiled-table CAPMAN decisions for all CAPMAN rows of a fleet."""

    def __init__(self, entries: Sequence[Entry], sim) -> None:
        self.rows = np.asarray([row for row, _, _ in entries],
                               dtype=np.int64)
        n = len(entries)
        self.interner = DecisionStateInterner()
        #: Boundary solves performed (one per trajectory per boundary).
        self.table_compiles = 0
        #: Boundary solves the certificate refused (value iteration ran).
        self.solve_fallbacks = 0
        #: Rows that joined an existing trajectory instead of solving.
        self.trajectory_dedupe_hits = 0

        self._thr_w = np.asarray(
            [policy.fallback_threshold_w for _, policy, _ in entries],
            dtype=np.float64)

        trajectories: List[_LearningTrajectory] = []
        traj_ids = {}
        traj_of_row = np.zeros(n, dtype=np.int64)
        max_segs = max(len(sched.segments) for _, _, sched in entries)
        seg_code = np.zeros((n, max_segs), dtype=np.int64)

        for g, (row, policy, sched) in enumerate(entries):
            profile = sim.phones[row].profile
            threshold = profile.wifi_model.threshold_kbps
            base_row = sim.base_tbl[row]
            for si, seg in enumerate(sched.segments):
                seg_code[g, si] = self.interner.key_code(
                    device_key_of(seg.demand, threshold))
            digest = _trajectory_digest(policy, sched, profile, threshold,
                                        base_row)
            tid = traj_ids.get(digest)
            if tid is None:
                tid = len(trajectories)
                traj_ids[digest] = tid
                trajectories.append(_LearningTrajectory(
                    policy, sched, profile, base_row, self.interner))
            else:
                self.trajectory_dedupe_hits += 1
            traj_of_row[g] = tid

        self.trajectories = trajectories
        self.traj_of_row = traj_of_row
        self.seg_code = seg_code
        # All segment keys are interned above, and solved policies only
        # contain observed keys (a subset), so the width never grows.
        self.tables = np.full((len(trajectories), self.interner.n_states),
                              -1, dtype=np.int8)
        self.next_replan_step = np.asarray(
            [t.first_boundary_step() for t in trajectories], dtype=np.int64)
        self._member_rows = [self.rows[traj_of_row == g]
                             for g in range(len(trajectories))]

    # ------------------------------------------------------------------
    def _process_boundaries(self, obs: StepObservation) -> None:
        for g in np.nonzero(self.next_replan_step == obs.j)[0]:
            g = int(g)
            trajectory = self.trajectories[g]
            if not obs.run[self._member_rows[g]].any():
                # run is monotone decreasing per row, so no member will
                # ever consult this trajectory again: freeze it.
                self.next_replan_step[g] = _NEVER
                continue
            event = trajectory.boundary_events[trajectory.next_boundary]
            trajectory.advance(event)
            self.tables[g], certified = trajectory.compile()
            self.table_compiles += 1
            self.solve_fallbacks += not certified
            trajectory.next_boundary += 1
            if trajectory.next_boundary < len(trajectory.boundary_events):
                self.next_replan_step[g] = np.int64(
                    trajectory.event_steps[
                        trajectory.boundary_events[trajectory.next_boundary]])
            else:
                self.next_replan_step[g] = _NEVER

    def decide(self, obs: StepObservation, choices: np.ndarray) -> None:
        live = np.nonzero(obs.run[self.rows])[0]
        if not live.size:
            return
        self._process_boundaries(obs)

        sel = self.rows[live]
        # Model lookup: one gather.  The scalar consults the scheduler
        # *after* this step's learning, which _process_boundaries has
        # already applied.
        code = self.seg_code[live, obs.segi[sel]] * 2 + obs.active_big[sel]
        model = self.tables[self.traj_of_row[live], code]

        # Burst fallback where the model has no opinion (-1): a
        # non-finite estimate routes BIG, a burst above the per-row
        # threshold routes LITTLE, gentle load routes BIG.
        base = obs.base_w[sel]
        fallback = np.where(np.isfinite(base) & (base > self._thr_w[live]),
                            CHOICE_LITTLE, CHOICE_BIG)
        choice = np.where(model >= 0, model, fallback).astype(np.int8)

        # Hot-spot LITTLE-lean (paper Section III-E), same finite check.
        cpu_t = obs.cpu_temp[sel]
        soc_l = obs.soc_little[sel]
        lean = (np.isfinite(cpu_t) & (cpu_t >= HOT_SPOT_THRESHOLD_C)
                & (soc_l > SOC_FLOOR))
        choice = np.where(lean, CHOICE_LITTLE, choice)

        # _guard: both redirects test the pre-guard choice (the scalar
        # returns early), so a LITTLE->BIG redirect is never re-guarded
        # back to LITTLE in the same step.
        soc_b = obs.soc_big[sel]
        little_out = ~np.isfinite(soc_l) | (soc_l <= SOC_FLOOR)
        big_out = ~np.isfinite(soc_b) | (soc_b <= SOC_FLOOR)
        to_big = (choice == CHOICE_LITTLE) & little_out
        to_little = (choice == CHOICE_BIG) & big_out
        choice = np.where(to_big, CHOICE_BIG,
                          np.where(to_little, CHOICE_LITTLE, choice))

        choices[sel] = choice
