"""Run budgets.

A :class:`RunBudget` gives a run explicit wall-clock and control-step
ceilings.  The harness polls it at the top of each step — a point
where the simulation state is consistent — so blowing the budget
triggers a *clean checkpoint-then-exit* (:class:`BudgetExceededError`
carrying the final checkpoint) instead of a timeout kill that discards
the work.

This is the one bound code applies to a run while it runs.  A sweep
cell needs no other: its work is fixed by its inputs (at most
``ceil(max_duration_s / control_dt)`` full control steps per cycle,
plus one tail step per trace segment), and the service checks that
bound on every submitted grid
(:data:`~repro.service.schemas.MAX_CELL_STEPS`).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from .snapshot import SimCheckpoint

__all__ = ["BudgetExceededError", "RunBudget"]


class BudgetExceededError(RuntimeError):
    """A run hit its wall-clock or step budget.

    ``checkpoint`` carries the clean final state when the harness was
    able to snapshot before exiting; resume from it to continue.
    """

    def __init__(self, message: str,
                 checkpoint: Optional["SimCheckpoint"] = None) -> None:
        super().__init__(message)
        self.checkpoint = checkpoint


class RunBudget:
    """Wall-clock and step ceilings for one run.

    Either limit may be ``None`` (unlimited).  The wall clock starts
    at construction; :meth:`restart` re-arms it (a resumed run gets a
    fresh wall budget — the spent wall time died with the old process,
    while ``max_steps`` counts *total* simulation steps and therefore
    carries across restores via the step index).
    """

    def __init__(self, max_wall_s: Optional[float] = None,
                 max_steps: Optional[int] = None) -> None:
        if max_wall_s is not None and max_wall_s <= 0:
            raise ValueError("max_wall_s must be positive")
        if max_steps is not None and max_steps <= 0:
            raise ValueError("max_steps must be positive")
        self.max_wall_s = max_wall_s
        self.max_steps = max_steps
        self._started = time.monotonic()

    def restart(self) -> None:
        """Re-arm the wall clock (call when resuming)."""
        self._started = time.monotonic()

    @property
    def elapsed_wall_s(self) -> float:
        """Wall seconds since construction / the last restart."""
        return time.monotonic() - self._started

    def exceeded(self, step_index: int) -> Optional[str]:
        """The reason the budget is blown, or ``None`` while inside it."""
        if self.max_steps is not None and step_index >= self.max_steps:
            return f"step budget of {self.max_steps} steps reached"
        if self.max_wall_s is not None:
            elapsed = time.monotonic() - self._started
            if elapsed >= self.max_wall_s:
                return (f"wall-clock budget of {self.max_wall_s} s reached "
                        f"({elapsed:.1f} s elapsed)")
        return None
