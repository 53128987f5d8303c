"""The sweep executor: how the cells the fleet batch rejects get run.

:class:`~repro.sim.sweep.ScenarioRunner` decides *what* to run (cache
misses, journal replay, the fleet batch); a
:class:`LocalProcessExecutor` runs the rest:

* :meth:`LocalProcessExecutor.attach` /
  :meth:`LocalProcessExecutor.detach` bracket one sweep and hand the
  executor its :class:`ExecutionContext` (checkpoint sidecars,
  commit callback);
* :meth:`LocalProcessExecutor.submit` runs one cell in-process to a
  final outcome -- a :data:`CellResult` or a contained
  :class:`CellFailure`;
* :meth:`LocalProcessExecutor.run` runs a batch: serially for one
  worker, else over a ``ProcessPoolExecutor`` with killed-worker
  containment.  A cell whose worker died is retried once
  (:data:`MAX_CELL_ATTEMPTS`), at once, in an isolated single-cell
  pool.

This module also owns the cell-execution primitives (single attempt,
sidecar checkpointing, failure capture) -- a pool worker runs exactly
the same :func:`timed_cell` as the serial loop, which is what keeps
pooled results byte-identical to serial ones.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import time
import traceback as traceback_module
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Tuple, Union)

from .. import obs
from ..durability.snapshot import Checkpointer, SimCheckpoint
from ..durability.state import StateMismatchError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .daily import MultiDayResult
    from .discharge import DischargeResult
    from .sweep import ScenarioCell, SimStats

__all__ = [
    "CellFailure",
    "ExecutionContext",
    "LocalProcessExecutor",
    "MAX_CELL_ATTEMPTS",
    "timed_cell",
]

#: Result type of a single scenario cell.
CellResult = Union["DischargeResult", "MultiDayResult"]

#: Attempts a pooled cell gets when its worker process dies: the first
#: run plus one immediate retry in a single-cell pool.  Exceptions
#: raised *inside* a cell are deterministic and never retried.
MAX_CELL_ATTEMPTS = 2


@dataclass(frozen=True)
class CellFailure:
    """A scenario cell that could not produce a result.

    Stored in the result slot of its cell so the rest of the sweep
    stays intact; carries enough to debug the cell offline.
    """

    #: The failed cell's human-readable label.
    label: str
    #: Exception class name (or "BrokenProcessPool" for a dead worker).
    error_type: str
    #: Exception message.
    message: str
    #: Formatted traceback ("" when the worker died without one).
    traceback: str = ""
    #: Execution attempts consumed (1 = no retries needed/left).
    attempts: int = 1

    def __str__(self) -> str:
        return f"{self.label}: {self.error_type}: {self.message}"


#: What a result slot can hold once failures are contained per cell.
CellOutcome = Union[CellResult, CellFailure]

#: The per-cell work item every backend produces:
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
    pickle round trip so serial execution sees exactly the fresh-copy
    semantics that process fan-out gets for free -- results are
    identical either way.
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
    """Run one scenario cell (worker entry point; must be picklable).

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
    obs_enabled: bool = False,
) -> CellItem:
    """(index, outcome, compute seconds, steps) for one cell.

    The measured wall time is harvested into ``SimStats`` and the
    result's own ``wall_time_s`` is zeroed, keeping payloads (and hence
    cache entries and parallel-vs-serial comparisons) deterministic.
    An exception inside the cell is captured as a :class:`CellFailure`
    instead of propagating -- one broken scenario must not abort the
    grid.

    ``obs_enabled`` propagates the parent's observability switch into
    pool workers: a worker with no session of its own configures a
    local null-exporter session so the cell's telemetry is harvested
    onto the result (which rides back over the existing result
    channel) and tears it down afterwards, keeping the pooled process
    clean for the next cell.
    """
    local_obs = False
    if obs_enabled and obs.session() is None:
        obs.configure(enabled=True)
        local_obs = True
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
        if local_obs:
            obs.disable()


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
@dataclass
class ExecutionContext:
    """Everything the executor needs to run one sweep's pending cells.

    Built by :class:`~repro.sim.sweep.ScenarioRunner` and handed to
    :meth:`LocalProcessExecutor.attach`; immutable for the duration of
    one sweep.
    """

    #: index -> sidecar checkpoint path (journalled sweeps only).
    ckpts: Dict[int, str] = field(default_factory=dict)
    #: In-cell sidecar checkpoint cadence in control steps.
    checkpoint_every_steps: int = 0
    #: Whether an observability session is active in the parent.
    obs_enabled: bool = False
    #: Durable-commit callback: called exactly once per cell index
    #: with its final outcome, as it lands (journal commits ride on
    #: this).
    on_final: Optional[Callable[[int, CellOutcome], None]] = None
    #: The sweep's stats object; the pool adds its retries to it.
    stats: Any = None
    #: Dispatch callback: called when a cell is handed to a worker
    #: (pool submit, serial pickup) so an external poller can
    #: distinguish queued from running cells.  Purely advisory -- it
    #: must never raise and never affects results.
    on_start: Optional[Callable[[int], None]] = None

    def finalise(self, index: int, outcome: CellOutcome) -> None:
        if self.on_final is not None:
            self.on_final(index, outcome)

    def started(self, index: int) -> None:
        if self.on_start is not None:
            self.on_start(index)


class LocalProcessExecutor:
    """Runs cells serially in-process or over a ``ProcessPoolExecutor``.

    ``workers=1`` (or a single-cell batch) runs cells serially
    in-process; anything wider fans out over a
    ``ProcessPoolExecutor``, with killed-worker containment,
    single-cell quarantine pools after a pool breakage, and
    byte-identical results for any worker count.  An instance is
    reusable across sweeps but never concurrently: ``attach`` /
    ``detach`` bracket one sweep.
    """

    #: Human-readable executor name (also the SimStats tag).
    name = "local"

    def __init__(self, workers: int = 1) -> None:
        self.workers = max(1, workers)
        self._ctx: Optional[ExecutionContext] = None
        self._blobs: List[obs.RunTelemetry] = []

    # -- lifecycle -----------------------------------------------------
    def attach(self, ctx: ExecutionContext) -> None:
        """Bind this executor to one sweep's context."""
        if self._ctx is not None:
            raise RuntimeError(f"{type(self).__name__} is already attached")
        self._ctx = ctx
        self._blobs = []

    def detach(self) -> None:
        """Release the sweep binding (idempotent)."""
        self._ctx = None

    @property
    def ctx(self) -> ExecutionContext:
        if self._ctx is None:
            raise RuntimeError(
                f"{type(self).__name__} is not attached to a sweep")
        return self._ctx

    # -- execution -----------------------------------------------------
    def submit(self, cell: "ScenarioCell") -> CellItem:
        """Run one cell in-process to a final outcome."""
        ctx = self.ctx
        ctx.started(cell.index)
        item = timed_cell(cell, ctx.ckpts.get(cell.index),
                          ctx.checkpoint_every_steps)
        ctx.finalise(item[0], item[1])
        return item

    def run(self, cells: Sequence["ScenarioCell"]) -> List[CellItem]:
        """Run a batch of cells; results come back in batch order."""
        if self.workers <= 1 or len(cells) <= 1:
            return [self.submit(cell) for cell in cells]
        return self._run_pool(cells)

    def remote_blobs(self) -> List[obs.RunTelemetry]:
        """Telemetry blobs of cells computed in pool workers.

        In-process cells merge their scopes into the live session
        directly; only pooled results carry blobs that the runner must
        fold in.  Drained (and reset) by the runner after :meth:`run`.
        """
        blobs, self._blobs = self._blobs, []
        return blobs

    # ------------------------------------------------------------------
    def _run_pool(self, pending: Sequence["ScenarioCell"]) -> List[CellItem]:
        """Fan out with containment for killed workers.

        Exceptions raised *inside* a cell never reach the pool (the
        worker converts them to :class:`CellFailure` payloads); the
        only way a future raises here is infrastructure failure -- the
        worker process died (OOM-kill, segfault, ``os._exit``), which
        breaks the whole pool and poisons every in-flight future.
        Those cells are retried at once in fresh *single-cell* pools,
        up to :data:`MAX_CELL_ATTEMPTS`, so a cell that reliably kills
        its worker exhausts only its own attempts while the innocent
        bystanders complete.
        """
        ctx = self.ctx
        outcomes: Dict[int, CellItem] = {}
        attempts: Dict[int, int] = {cell.index: 0 for cell in pending}
        # Propagate the parent's observability switch into workers so
        # each cell harvests its telemetry onto the returned result.
        obs_on = ctx.obs_enabled
        todo: List["ScenarioCell"] = list(pending)
        isolate = False
        while todo:
            retry: List["ScenarioCell"] = []
            groups = [[cell] for cell in todo] if isolate else [todo]
            for group in groups:
                workers = min(self.workers, len(group))
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    futures = [
                        (pool.submit(timed_cell, cell,
                                     ctx.ckpts.get(cell.index),
                                     ctx.checkpoint_every_steps, obs_on),
                         cell)
                        for cell in group
                    ]
                    for _, cell in futures:
                        ctx.started(cell.index)
                    for future, cell in futures:
                        try:
                            index, outcome, elapsed, steps = future.result()
                        except Exception as exc:
                            attempts[cell.index] += 1
                            if attempts[cell.index] >= MAX_CELL_ATTEMPTS:
                                failure = CellFailure(
                                    label=cell.label,
                                    error_type=type(exc).__name__,
                                    message=str(exc) or "worker process died",
                                    attempts=attempts[cell.index],
                                )
                                outcomes[cell.index] = (cell.index, failure,
                                                        0.0, 0)
                                ctx.finalise(cell.index, failure)
                            else:
                                if ctx.stats is not None:
                                    ctx.stats.cell_retries += 1
                                retry.append(cell)
                            continue
                        if (isinstance(outcome, CellFailure)
                                and attempts[cell.index]):
                            outcome = dataclasses.replace(
                                outcome,
                                attempts=attempts[cell.index] + 1)
                        outcomes[cell.index] = (index, outcome, elapsed, steps)
                        ctx.finalise(index, outcome)
                        if obs_on:
                            blob = getattr(outcome, "telemetry", None)
                            if blob is not None:
                                self._blobs.append(blob)
            todo = retry
            # After any pool breakage, quarantine survivors one per pool.
            isolate = True
        return [outcomes[cell.index] for cell in pending]
