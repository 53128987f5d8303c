"""The sweep's cell primitives and its one serial loop.

:class:`~repro.sim.sweep.ScenarioRunner` decides *what* to run (cache
misses, journal replay, the fleet batch); the cells the fleet batch
leaves run here, one after another in this process, through
:meth:`LocalProcessExecutor.run`.  Every cell bottoms out in
:func:`timed_cell`: one attempt, sidecar checkpointing and resume,
failure capture as a :class:`CellFailure`, and ``wall_time_s``
zeroing.
"""

from __future__ import annotations

import os
import pickle
import time
import traceback as traceback_module
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Tuple, Union)

from .. import obs
from ..durability.snapshot import Checkpointer, SimCheckpoint
from ..durability.state import StateMismatchError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .daily import MultiDayResult
    from .discharge import DischargeResult
    from .sweep import ScenarioCell

__all__ = [
    "CellFailure",
    "CellItem",
    "CellOutcome",
    "CellResult",
    "LocalProcessExecutor",
    "timed_cell",
]

#: Result type of a single scenario cell.
CellResult = Union["DischargeResult", "MultiDayResult"]


@dataclass(frozen=True)
class CellFailure:
    """A scenario cell that could not produce a result.

    Stored in the result slot of its cell so the rest of the sweep
    stays intact; carries enough to debug the cell offline.
    """

    #: The failed cell's human-readable label.
    label: str
    #: Exception class name.
    error_type: str
    #: Exception message.
    message: str
    #: Formatted traceback.
    traceback: str = ""
    #: Execution attempts consumed.  Always 1: a raising cell is never
    #: retried.  The field stays so failures pickled into existing
    #: journals and result bodies keep loading.
    attempts: int = 1

    def __str__(self) -> str:
        return f"{self.label}: {self.error_type}: {self.message}"


#: What a result slot can hold once failures are contained per cell.
CellOutcome = Union[CellResult, CellFailure]

#: The per-cell work item both engines produce:
#: ``(index, outcome, compute seconds, control steps)``.
CellItem = Tuple[int, CellOutcome, float, int]


# ----------------------------------------------------------------------
# Shared cell-execution primitives
# ----------------------------------------------------------------------
def _run_cell_once(cell: "ScenarioCell",
                   checkpointer: Optional[Checkpointer],
                   resume_from: Optional[SimCheckpoint]) -> CellResult:
    """One attempt at a cell, optionally durable.

    The policy template and extra run arguments are cloned via a
    pickle round trip: a run mutates its policy (online learning,
    pack state), and the spec's template must stay unmutated so every
    cell -- and every later sweep of the same spec -- starts from the
    same policy.
    """
    from .daily import run_days
    from .discharge import run_discharge_cycle

    policy, extra = pickle.loads(pickle.dumps((cell.policy, dict(cell.extra))))
    durable: Dict[str, Any] = {}
    if checkpointer is not None:
        durable["checkpointer"] = checkpointer
        durable["resume_from"] = resume_from
    if cell.kind == "daily":
        result: CellResult = run_days(
            policy, cell.trace, profile=cell.profile,
            control_dt=cell.control_dt, max_cycle_s=cell.max_duration_s,
            **durable, **extra,
        )
    else:
        result = run_discharge_cycle(
            policy, cell.trace, profile=cell.profile,
            control_dt=cell.control_dt, max_duration_s=cell.max_duration_s,
            ambient_c=cell.ambient_c, record_every=cell.record_every,
            **durable, **extra,
        )
    return result


def _execute_cell(cell: "ScenarioCell",
                  ckpt_path: Optional[str] = None,
                  ckpt_every: int = 0) -> CellResult:
    """Run one scenario cell.

    When ``ckpt_path`` is set (journalled sweeps), the cell writes
    periodic sidecar checkpoints there and, if a verified sidecar from
    an interrupted attempt exists, resumes from it instead of starting
    over.  A sidecar whose configuration fingerprint no longer matches
    (edited spec under an unchanged key salt) is discarded and the
    cell recomputes from scratch -- stale state is never trusted.
    """
    if ckpt_path is None:
        return _run_cell_once(cell, None, None)
    checkpointer = Checkpointer(ckpt_path, every_steps=ckpt_every)
    resume_from = SimCheckpoint.try_load(ckpt_path)
    try:
        return _run_cell_once(cell, checkpointer, resume_from)
    except StateMismatchError:
        if resume_from is None:
            raise
        try:
            os.unlink(ckpt_path)
        except OSError:
            pass
        return _run_cell_once(cell, checkpointer, None)


def timed_cell(
    cell: "ScenarioCell", ckpt_path: Optional[str] = None, ckpt_every: int = 0,
) -> CellItem:
    """(index, outcome, compute seconds, steps) for one cell.

    The measured wall time is harvested into ``SimStats`` and the
    result's own ``wall_time_s`` is zeroed, keeping payloads (and hence
    cache entries and fleet-vs-scalar comparisons) deterministic.
    An exception inside the cell is captured as a :class:`CellFailure`
    instead of propagating -- one broken scenario must not abort the
    grid.
    """
    ob = obs.session()
    cell_span = (ob.tracer.start("cell", label=cell.label)
                 if ob is not None else None)
    started = time.perf_counter()
    try:
        try:
            result: CellOutcome = _execute_cell(cell, ckpt_path, ckpt_every)
        except Exception as exc:
            elapsed = time.perf_counter() - started
            failure = CellFailure(
                label=cell.label,
                error_type=type(exc).__name__,
                message=str(exc),
                traceback=traceback_module.format_exc(),
            )
            return cell.index, failure, elapsed, 0
        elapsed = time.perf_counter() - started
        steps = int(getattr(result, "step_count", 0))
        if hasattr(result, "wall_time_s"):
            result.wall_time_s = 0.0
        return cell.index, result, elapsed, steps
    finally:
        if cell_span is not None:
            cell_span.finish()


# ----------------------------------------------------------------------
# The serial loop
# ----------------------------------------------------------------------
class LocalProcessExecutor:
    """Runs cells serially in this process, in batch order.

    Stateless.  It is a class, not a function, only because the
    repository benchmark's tracer (``benchmarks/perf/tracing.py``)
    wraps ``LocalProcessExecutor.__dict__["run"]`` for its
    ``sim.executors.run`` ledger row; the runner looks ``run`` up on
    the class at call time so that wrapper counts every loop.
    """

    def run(self, cells: Sequence["ScenarioCell"], ckpts: Dict[int, str],
            checkpoint_every_steps: int,
            on_start: Callable[[int], None],
            on_final: Callable[[int, CellOutcome], None]) -> List[CellItem]:
        """Run ``cells`` to final outcomes, in batch order.

        ``on_start`` is called with a cell's index before it runs and
        ``on_final`` with its index and outcome after, so a cell is
        always marked running before it commits.  ``ckpts`` maps an
        index to its sidecar checkpoint path (journalled sweeps only).
        """
        items: List[CellItem] = []
        for cell in cells:
            on_start(cell.index)
            item = timed_cell(cell, ckpts.get(cell.index),
                              checkpoint_every_steps)
            on_final(item[0], item[1])
            items.append(item)
        return items
