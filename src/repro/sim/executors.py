"""Pluggable sweep executors: how scenario cells actually get run.

:class:`~repro.sim.sweep.ScenarioRunner` decides *what* to run (cache
misses, journal replay, fleet batching); a :class:`SweepExecutor`
decides *where and how*.  The interface is deliberately small:

* :meth:`SweepExecutor.attach` / :meth:`SweepExecutor.detach` bracket
  one sweep and hand the executor its :class:`ExecutionContext`
  (timeouts, checkpoint sidecars, retry policy, commit callback);
* :meth:`SweepExecutor.submit` runs one cell to a final outcome --
  a :data:`CellResult` or a contained :class:`CellFailure`;
* :meth:`SweepExecutor.run` maps ``submit`` over a batch (backends
  override it to fan out);
* :meth:`SweepExecutor.heartbeat` is a liveness/progress snapshot.

:class:`LocalProcessExecutor` reproduces the historic in-repo
behaviour byte-for-byte: serial in-process execution for one worker,
``ProcessPoolExecutor`` fan-out with killed-worker containment and
retry/backoff above that.  The distributed TCP backend lives in
:mod:`repro.sim.distributed`.

This module also owns the cell-execution primitives (single attempt,
sidecar checkpointing, per-cell timeout, failure capture) that every
backend shares -- a worker process on another host runs exactly the
same :func:`timed_cell` as the serial loop, which is what keeps remote
results byte-identical to local ones.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import threading
import time
import traceback as traceback_module
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Tuple, Union)

from .. import obs
from ..durability.deadline import DeadlineExceededError, thread_deadline
from ..durability.snapshot import Checkpointer, SimCheckpoint
from ..durability.state import StateMismatchError
from .retry import DEFAULT_RETRY, RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .daily import MultiDayResult
    from .discharge import DischargeResult
    from .sweep import ScenarioCell, SimStats

__all__ = [
    "CellFailure",
    "CellTimeoutError",
    "ExecutionContext",
    "ExecutorHeartbeat",
    "SweepExecutor",
    "LocalProcessExecutor",
    "timed_cell",
    "choose_timeout_mechanism",
]

#: Result type of a single scenario cell.
CellResult = Union["DischargeResult", "MultiDayResult"]


class CellTimeoutError(DeadlineExceededError):
    """A scenario cell exceeded the runner's per-cell timeout.

    Subclasses :class:`~repro.durability.deadline.DeadlineExceededError`
    so the SIGALRM path and the cooperative-deadline fallback raise the
    same family of exception -- callers filter on one type either way.
    """


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


def choose_timeout_mechanism(timeout_s: Optional[float]) -> str:
    """Which per-cell timeout mechanism this thread would use.

    ``"none"`` when no budget is set, ``"sigalrm"`` for the hard
    SIGALRM interrupt (POSIX main thread -- where pool workers and the
    serial path run cells), ``"cooperative"`` for the per-thread
    deadline the simulation loops poll every control step.
    """
    if not timeout_s or timeout_s <= 0:
        return "none"
    try:
        import signal
        if (hasattr(signal, "setitimer")
                and threading.current_thread() is threading.main_thread()):
            return "sigalrm"
    except ImportError:  # pragma: no cover - signal is POSIX-universal
        pass
    return "cooperative"


def _execute_with_timeout(cell: "ScenarioCell",
                          timeout_s: Optional[float],
                          ckpt_path: Optional[str] = None,
                          ckpt_every: int = 0) -> CellResult:
    """Run one cell under a wall-clock budget.

    SIGALRM delivers a hard timeout on the main thread of a POSIX
    process -- which is exactly where ProcessPoolExecutor workers (and
    the serial path) run cells.  Anywhere else (worker threads,
    platforms without ``setitimer``) the budget degrades -- with a
    warning -- to a cooperative per-thread deadline that the simulation
    loops poll every control step, raising the same
    :class:`CellTimeoutError`, instead of silently having no timeout
    at all.
    """
    mechanism = choose_timeout_mechanism(timeout_s)
    if mechanism == "none":
        return _execute_cell(cell, ckpt_path, ckpt_every)
    message = f"cell exceeded the per-cell timeout of {timeout_s} s"
    if mechanism == "cooperative":
        warnings.warn(
            "SIGALRM is unavailable off the main thread / on this "
            "platform; the per-cell timeout falls back to a cooperative "
            "deadline polled by the simulation loop (best-effort)",
            RuntimeWarning, stacklevel=2)
        with thread_deadline(timeout_s, message, exc_type=CellTimeoutError):
            return _execute_cell(cell, ckpt_path, ckpt_every)
    import signal

    def _on_alarm(signum, frame):
        raise CellTimeoutError(message)

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        return _execute_cell(cell, ckpt_path, ckpt_every)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def timed_cell(
    cell: "ScenarioCell", timeout_s: Optional[float] = None,
    ckpt_path: Optional[str] = None, ckpt_every: int = 0,
    obs_enabled: bool = False,
) -> CellItem:
    """(index, outcome, compute seconds, steps) for one cell.

    The measured wall time is harvested into ``SimStats`` and the
    result's own ``wall_time_s`` is zeroed, keeping payloads (and hence
    cache entries and parallel-vs-serial comparisons) deterministic.
    An exception inside the cell (including a timeout) is captured as a
    :class:`CellFailure` instead of propagating -- one broken scenario
    must not abort the grid.

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
            result: CellOutcome = _execute_with_timeout(
                cell, timeout_s, ckpt_path, ckpt_every)
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
# Executor interface
# ----------------------------------------------------------------------
@dataclass
class ExecutionContext:
    """Everything a backend needs to run one sweep's pending cells.

    Built by :class:`~repro.sim.sweep.ScenarioRunner` and handed to
    :meth:`SweepExecutor.attach`; immutable for the duration of one
    sweep.
    """

    #: Per-cell wall-clock budget (None = unbounded).
    cell_timeout_s: Optional[float] = None
    #: index -> sidecar checkpoint path (journalled sweeps only).
    ckpts: Dict[int, str] = field(default_factory=dict)
    #: In-cell sidecar checkpoint cadence in control steps.
    checkpoint_every_steps: int = 0
    #: Retry/backoff schedule for infrastructure failures.
    retry: RetryPolicy = DEFAULT_RETRY
    #: Pool width hint (the runner's ``workers``).
    workers: int = 1
    #: Whether an observability session is active in the parent.
    obs_enabled: bool = False
    #: Durable-commit callback: called exactly once per cell index
    #: with its final outcome, as it lands (journal commits ride on
    #: this).
    on_final: Optional[Callable[[int, CellOutcome], None]] = None
    #: The sweep's stats object; backends add their retry/backoff
    #: accounting to it.
    stats: Any = None
    #: Durable-append hook into the run journal (``RunJournal.append``);
    #: backends that persist their own dispatch state (the distributed
    #: coordinator's lease grants) write through this.  None for
    #: un-journalled sweeps.
    journal_append: Optional[Callable[[str, Dict[str, Any]], int]] = None
    #: index -> count of journalled-but-uncommitted lease grants from a
    #: previous coordinator incarnation (crash recovery: these charge
    #: the cell's failure budget before re-dispatch).
    replayed_grants: Dict[int, int] = field(default_factory=dict)
    #: Dispatch callback: called when a cell is handed to a worker
    #: (pool submit, lease grant, serial pickup) so an external poller
    #: can distinguish queued from running cells.  Purely advisory --
    #: it must never raise and never affects results.
    on_start: Optional[Callable[[int], None]] = None

    def finalise(self, index: int, outcome: CellOutcome) -> None:
        if self.on_final is not None:
            self.on_final(index, outcome)

    def started(self, index: int) -> None:
        if self.on_start is not None:
            self.on_start(index)

    def count_retry(self, wait_s: float) -> None:
        """Account one retry (and its backoff wait) on stats + obs."""
        if self.stats is not None:
            self.stats.cell_retries += 1
            self.stats.backoff_wait_s += wait_s
        ob = obs.session()
        if ob is not None:
            reg = ob.registry
            reg.counter("sweep.retries").inc()
            if wait_s > 0.0:
                reg.counter("sweep.backoff_wait_s").inc(wait_s)


@dataclass
class ExecutorHeartbeat:
    """A point-in-time liveness snapshot of a backend."""

    #: Backend name ("local", "distributed", ...).
    backend: str
    #: Monotonic timestamp of the snapshot.
    at_monotonic: float
    #: Workers currently attached/usable.
    workers: int = 0
    #: Cells finished so far in the current batch.
    done: int = 0
    #: Cells handed out but not yet finished (leases, futures).
    in_flight: int = 0
    #: Extra backend-specific gauges.
    detail: Dict[str, float] = field(default_factory=dict)


class SweepExecutor:
    """Interface every sweep backend implements.

    The base class provides a serial reference implementation of
    :meth:`run` in terms of :meth:`submit`; backends override what
    they accelerate.  An executor instance is reusable across sweeps
    but never concurrently: ``attach`` / ``detach`` bracket one sweep.
    """

    #: Human-readable backend name (also the SimStats/obs tag).
    name = "base"

    def __init__(self) -> None:
        self._ctx: Optional[ExecutionContext] = None
        self._done = 0

    # -- lifecycle -----------------------------------------------------
    def attach(self, ctx: ExecutionContext) -> None:
        """Bind this executor to one sweep's context."""
        if self._ctx is not None:
            raise RuntimeError(f"{type(self).__name__} is already attached")
        self._ctx = ctx
        self._done = 0

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
        """Run one cell to a final outcome (result or CellFailure)."""
        ctx = self.ctx
        ctx.started(cell.index)
        item = timed_cell(cell, ctx.cell_timeout_s,
                          ctx.ckpts.get(cell.index),
                          ctx.checkpoint_every_steps)
        self._done += 1
        ctx.finalise(item[0], item[1])
        return item

    def run(self, cells: Sequence["ScenarioCell"]) -> List[CellItem]:
        """Run a batch of cells; default maps :meth:`submit` serially."""
        return [self.submit(cell) for cell in cells]

    # -- introspection -------------------------------------------------
    def heartbeat(self) -> ExecutorHeartbeat:
        """Liveness/progress snapshot (cheap, thread-safe)."""
        return ExecutorHeartbeat(backend=self.name,
                                 at_monotonic=time.monotonic(),
                                 workers=1, done=self._done)

    def remote_blobs(self) -> List[obs.RunTelemetry]:
        """Telemetry blobs of cells computed *outside* this process.

        In-process cells merge their scopes into the live session
        directly; only out-of-process results carry blobs that the
        runner must fold in.  Drained (and reset) by the runner after
        :meth:`run`.
        """
        return []


class LocalProcessExecutor(SweepExecutor):
    """The historic in-repo backend: serial or ProcessPoolExecutor.

    ``workers=1`` (or a single-cell batch) runs cells serially
    in-process; anything wider fans out over a
    ``ProcessPoolExecutor``.  Behaviour -- including killed-worker
    containment, single-cell quarantine pools after a pool breakage,
    and byte-identical results for any worker count -- is exactly the
    pre-extraction ``ScenarioRunner`` logic.
    """

    name = "local"

    def __init__(self, workers: int = 1) -> None:
        super().__init__()
        self.workers = max(1, workers)
        self._blobs: List[obs.RunTelemetry] = []
        self._in_flight = 0

    def attach(self, ctx: ExecutionContext) -> None:
        super().attach(ctx)
        self._blobs = []
        self._in_flight = 0

    def run(self, cells: Sequence["ScenarioCell"]) -> List[CellItem]:
        if self.workers <= 1 or len(cells) <= 1:
            return [self.submit(cell) for cell in cells]
        return self._run_pool(cells)

    def heartbeat(self) -> ExecutorHeartbeat:
        return ExecutorHeartbeat(backend=self.name,
                                 at_monotonic=time.monotonic(),
                                 workers=self.workers, done=self._done,
                                 in_flight=self._in_flight)

    def remote_blobs(self) -> List[obs.RunTelemetry]:
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
        Those cells are retried -- after the retry policy's backoff --
        in fresh *single-cell* pools, so a cell that reliably kills
        its worker exhausts only its own attempt budget while the
        innocent bystanders complete.
        """
        ctx = self.ctx
        retry_policy = ctx.retry
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
                        (pool.submit(timed_cell, cell, ctx.cell_timeout_s,
                                     ctx.ckpts.get(cell.index),
                                     ctx.checkpoint_every_steps, obs_on),
                         cell)
                        for cell in group
                    ]
                    self._in_flight = len(futures)
                    for _, cell in futures:
                        ctx.started(cell.index)
                    for future, cell in futures:
                        try:
                            index, outcome, elapsed, steps = future.result()
                        except Exception as exc:
                            attempts[cell.index] += 1
                            if not retry_policy.allows(attempts[cell.index]):
                                failure = CellFailure(
                                    label=cell.label,
                                    error_type=type(exc).__name__,
                                    message=str(exc) or "worker process died",
                                    attempts=attempts[cell.index],
                                )
                                outcomes[cell.index] = (cell.index, failure,
                                                        0.0, 0)
                                self._done += 1
                                ctx.finalise(cell.index, failure)
                            else:
                                wait = retry_policy.sleep(
                                    attempts[cell.index], token=cell.label)
                                ctx.count_retry(wait)
                                retry.append(cell)
                            continue
                        if (isinstance(outcome, CellFailure)
                                and attempts[cell.index]):
                            outcome = dataclasses.replace(
                                outcome,
                                attempts=attempts[cell.index] + 1)
                        outcomes[cell.index] = (index, outcome, elapsed, steps)
                        self._done += 1
                        ctx.finalise(index, outcome)
                        if obs_on:
                            blob = getattr(outcome, "telemetry", None)
                            if blob is not None:
                                self._blobs.append(blob)
                    self._in_flight = 0
            todo = retry
            # After any pool breakage, quarantine survivors one per pool.
            isolate = True
        return [outcomes[cell.index] for cell in pending]
