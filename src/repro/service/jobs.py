"""Durable job queue over the sweep engine.

A :class:`JobStore` owns everything between "the HTTP handler parsed a
spec" and "a sweep result exists":

* **Identity.**  A job ID is derived from the content hashes of the
  grid's expanded cells (:func:`job_id_for`), so the same grid
  submitted by any client at any time *is* the same job -- duplicate
  submissions return the existing record with zero recomputation, and
  overlapping-but-different grids still dedupe cell-wise through the
  shared :class:`~repro.sim.sweep.SweepCache`.

* **Durability.**  Every accepted job is journalled to a
  :class:`~repro.durability.journal.RunJournal` WAL (``jobs.journal``)
  *before* the submitter is acked, and its terminal state is a second
  record.  Each job's sweep additionally runs under its own per-job
  run journal, so a SIGKILLed server restarts, replays the WAL,
  re-enqueues every unfinished job and resumes each sweep without
  recomputing a single committed cell.

* **Execution.**  Runner threads drain a FIFO queue and drive
  :meth:`~repro.sim.sweep.ScenarioRunner.run_or_resume` in-process:
  the fleet-supported cells run as one vectorised fleet batch, the
  rest serially on the scalar engine.

The store never touches the process-global observability session:
request/queue metrics go to the service-owned registry handed in by
the app, keeping the repo's obs-off invisibility guarantees intact.
"""

from __future__ import annotations

import hashlib
import pickle
import queue
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..durability.journal import (JournalError, RunJournal, decode_blob,
                                  encode_blob)
from ..obs.tracer import Tracer
# ``cell_key`` is imported for the per-layer tracer in benchmarks/perf,
# which wraps it here; identities hash through the batched ``cell_keys``.
from ..sim.sweep import (ScenarioRunner, SweepCache, SweepSpec,  # noqa: F401
                         cell_key, cell_keys, code_salt)
from .schemas import ApiError

__all__ = ["Job", "JobStore", "job_id_for"]

#: Job lifecycle states (the service's state machine; see DESIGN §15).
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"

#: The last ``(spec, salt, cell keys)`` :func:`job_id_for` hashed on
#: this thread, left for :meth:`JobStore.submit` to hand to the job's
#: sweep, so a served grid's cells are hashed once.
_hashed = threading.local()


def job_id_for(spec: SweepSpec, salt: Optional[str] = None) -> str:
    """Content-hash job identity: the grid *is* the ID.

    Hashes the sorted cell keys (plus the sweep kind) under the same
    code-version salt the result cache uses, so two textually
    different requests that expand to the same physics share one job,
    and a code change mints fresh identities instead of serving stale
    results.
    """
    salt = salt if salt is not None else code_salt()
    keys = cell_keys(spec.expand(), salt)
    digest = hashlib.sha256()
    digest.update(spec.kind.encode())
    for key in sorted(keys):
        digest.update(key.encode())
    _hashed.last = (spec, salt, keys)
    return digest.hexdigest()[:32]


def _take_hashed(spec: SweepSpec, salt: str) -> Optional[List[str]]:
    """The cell keys :func:`job_id_for` just hashed for ``spec`` on
    this thread (None if it hashed something else since)."""
    last = getattr(_hashed, "last", None)
    _hashed.last = None
    if last is None or last[0] is not spec or last[1] != salt:
        return None
    return last[2]


@dataclass
class Job:
    """One submitted grid and everything known about its execution.

    A finished job holds no result bytes, spec or runner: its results
    are read from the cache by cell key, and its status is the
    progress snapshot taken when it finished.
    """

    job_id: str
    #: The grid, until the job finishes (None afterwards, and for a
    #: job recovered as finished).
    spec: Optional[SweepSpec]
    state: str = QUEUED
    error: Optional[str] = None
    n_cells: int = 0
    submitted_monotonic: float = 0.0
    #: Live runner while executing (its progress() feeds pollers).
    runner: Optional[ScenarioRunner] = field(default=None, repr=False)
    #: Cell keys in spec order: hashed on submit, or read back from the
    #: run journal when a recovered job's results are first asked for.
    keys: Optional[List[str]] = field(default=None, repr=False)
    #: The runner's progress snapshot, taken when the job finished.
    progress: Optional[Dict[str, Any]] = field(default=None, repr=False)
    #: Stats dict frozen at completion (in memory only: a job recovered
    #: as finished has none).
    stats: Optional[Dict[str, Any]] = field(default=None, repr=False)


class JobStore:
    """Journal-backed job registry + runner pool (thread-safe)."""

    def __init__(
        self,
        root: Union[str, Path],
        job_runners: int = 2,
        metrics: Any = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.cache = SweepCache(self.root / "cache")
        self.metrics = metrics
        self._salt = code_salt()
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._closed = False
        self._recover()
        self._journal = RunJournal(self.root / "jobs.journal")
        self._runners = [
            threading.Thread(target=self._runner_loop,
                             name=f"job-runner-{i}", daemon=True)
            for i in range(max(1, job_runners))
        ]
        for thread in self._runners:
            thread.start()

    # ------------------------------------------------------------------
    # Recovery (WAL replay)
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Rebuild the job table from the WAL and re-enqueue survivors."""
        path = self.root / "jobs.journal"
        if not path.exists() or path.stat().st_size == 0:
            return
        records = RunJournal.replay_typed(path, ("job_submit", "job_done"))
        submits: Dict[str, Dict[str, Any]] = {}
        for record in records:
            data = record["data"]
            if record["type"] == "job_submit":
                submits[data["job_id"]] = data
                self._jobs[data["job_id"]] = Job(
                    job_id=data["job_id"], spec=None,
                    n_cells=data.get("n_cells", 0),
                    submitted_monotonic=time.monotonic())
            else:
                job = self._jobs.get(data["job_id"])
                if job is not None:
                    job.state = DONE if data.get("ok") else FAILED
                    job.error = data.get("error")
        # Only unfinished jobs keep their spec: they run again.
        for job in self._jobs.values():
            data = submits[job.job_id]
            unfinished = job.state in (QUEUED, RUNNING)
            if unfinished or "n_cells" not in data:
                spec = pickle.loads(decode_blob(data["spec"]))
                job.n_cells = data.get("n_cells", len(spec))
            if unfinished:
                job.spec = spec
                job.state = QUEUED
                self._queue.put(job.job_id)
                self._count("jobs.recovered")

    # ------------------------------------------------------------------
    # Submission / lookup
    # ------------------------------------------------------------------
    def submit(self, spec: SweepSpec) -> tuple:
        """Accept a validated spec; returns ``(job, created)``.

        The WAL record is fsync'd before this returns, so an acked
        submission survives any subsequent crash.  A resubmission of
        an identical grid (same content-hash ID) is acknowledged
        without journalling, enqueueing or computing anything.
        """
        job_id = job_id_for(spec, self._salt)
        keys = _take_hashed(spec, self._salt)
        with self._lock:
            existing = self._jobs.get(job_id)
            if existing is not None:
                self._count("jobs.deduped")
                return existing, False
            job = Job(job_id=job_id, spec=spec, n_cells=len(spec),
                      submitted_monotonic=time.monotonic(), keys=keys)
            self._jobs[job_id] = job
        self._journal.append("job_submit", {
            "job_id": job_id,
            "spec": encode_blob(pickle.dumps(spec, protocol=4)),
            "salt": self._salt,
            "n_cells": job.n_cells,
            "kind": spec.kind,
        })
        self._queue.put(job_id)
        self._count("jobs.submitted")
        return job, True

    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ApiError(404, "unknown_job", f"no job {job_id!r}")
        return job

    def status(self, job_id: str) -> Dict[str, Any]:
        """JSON-ready status + live progress snapshot for one job."""
        job = self.get(job_id)
        out: Dict[str, Any] = {
            "job_id": job.job_id,
            "state": job.state,
            "cells": job.n_cells,
        }
        if job.error is not None:
            out["error"] = job.error
        # A finishing job stores its snapshot before it drops its runner.
        runner = job.runner
        if runner is not None:
            out["progress"] = runner.progress().as_dict()
        elif job.progress is not None:
            out["progress"] = job.progress
        if job.stats is not None:
            out["stats"] = job.stats
        return out

    def counts(self) -> Dict[str, int]:
        """Jobs per lifecycle state (for /metrics)."""
        with self._lock:
            jobs = list(self._jobs.values())
        out = {QUEUED: 0, RUNNING: 0, DONE: 0, FAILED: 0}
        for job in jobs:
            out[job.state] = out.get(job.state, 0) + 1
        return out

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def result_blobs(self, job_id: str) -> List[bytes]:
        """Per-cell pickled outcomes of a finished job, in spec order.

        Pickle protocol 4 -- byte-identical to pickling the outcome of
        a direct :class:`ScenarioRunner` run of the same grid, which is
        exactly what the end-to-end tests assert.  Each cell's bytes
        are read from the cache by its key -- the pack its journal
        commit points into, or the entry it was served from -- so a
        finished job holds none.  A result that cannot be read is a
        500 ``results_unreadable``.
        """
        job = self.get(job_id)
        if job.state != DONE:
            raise ApiError(409, "job_not_done",
                           f"job {job_id} is {job.state}")
        try:
            keys = job.keys
            if keys is None:
                keys = job.keys = self._journal_keys(job)
            blobs = [self.cache.entry(key) for key in keys]
        except (JournalError, OSError) as exc:
            raise ApiError(500, "results_unreadable",
                           f"job {job_id}: {exc}") from exc
        if None in blobs:
            raise ApiError(500, "results_unreadable",
                           f"job {job_id}: cell {blobs.index(None)}'s "
                           f"result is not in the cache")
        return blobs  # type: ignore[return-value]

    def _journal_keys(self, job: Job) -> List[str]:
        """A recovered job's cell keys, from its run journal's header:
        the spec and salt the sweep ran under (no cell runs)."""
        path = self.root / "jobs" / job.job_id / "run.journal"
        records = RunJournal.replay(path, recover=False)
        if not records or records[0]["type"] != "sweep_start":
            raise JournalError(f"{path} has no sweep_start record")
        head = records[0]["data"]
        spec: SweepSpec = pickle.loads(decode_blob(head["spec"]))
        return cell_keys(spec.expand(), head["salt"])

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _build_runner(self, job: Job) -> ScenarioRunner:
        job_dir = self.root / "jobs" / job.job_id
        job_dir.mkdir(parents=True, exist_ok=True)
        runner = ScenarioRunner(cache=self.cache,
                                journal=job_dir / "run.journal")
        if job.keys is not None:
            runner._known_keys = (job.spec, self._salt, job.keys)
        return runner

    def _runner_loop(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            with self._lock:
                job = self._jobs.get(job_id)
            if job is None or job.state not in (QUEUED,):
                continue
            self._execute(job)

    def _execute(self, job: Job) -> None:
        queue_wait = time.monotonic() - job.submitted_monotonic
        self._observe("job.queue_wait_s", queue_wait)
        self._merge_spans({"job.queue_wait": {
            "count": 1, "total_s": queue_wait, "max_s": queue_wait}})
        runner = self._build_runner(job)
        with self._lock:
            job.runner = runner
            job.state = RUNNING
        tracer = Tracer()
        mark = tracer.mark()
        span = tracer.start("job.exec", job=job.job_id,
                            cells=job.n_cells)
        started = time.monotonic()
        try:
            result, error = runner.run_or_resume(job.spec), None
        except Exception as exc:  # infrastructure failure, not a cell
            result, error = None, f"{type(exc).__name__}: {exc}"
        span.finish()
        self._merge_spans(tracer.window(mark))
        # A finished job keeps neither its results nor their bytes:
        # GET /results reads the bytes from the cache by cell key.
        with self._lock:
            job.progress = runner.progress().as_dict()
            job.runner = None
            job.spec = None
            if result is not None:
                job.stats = result.stats.as_dict()
        if result is None:
            self._finish(job, ok=False, error=error)
            return
        self._observe("job.exec_s", time.monotonic() - started)
        failures = result.failures
        if failures:
            self._finish(job, ok=False,
                         error=f"{len(failures)} of {job.n_cells} cells "
                               f"failed ({failures[0][1].error_type})")
        else:
            self._count("jobs.cache_hits", result.stats.cache_hits)
            self._finish(job, ok=True)

    def _finish(self, job: Job, ok: bool,
                error: Optional[str] = None) -> None:
        self._journal.append("job_done", {
            "job_id": job.job_id, "ok": ok, "error": error})
        with self._lock:
            job.state = DONE if ok else FAILED
            job.error = error
        self._count("jobs.completed" if ok else "jobs.failed")

    # ------------------------------------------------------------------
    # Lifecycle / metrics plumbing
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the runner threads and close the WAL (graceful only --
        the crash path needs no cooperation, that is the point)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for _ in self._runners:
            self._queue.put(None)
        for thread in self._runners:
            thread.join(timeout=30.0)
        self._journal.close()

    def _count(self, name: str, value: float = 1.0) -> None:
        if self.metrics is not None and value:
            self.metrics.inc(name, value)

    def _observe(self, name: str, value: float) -> None:
        if self.metrics is not None:
            self.metrics.observe(name, value)

    def _merge_spans(self, window: Dict[str, Dict[str, float]]) -> None:
        if self.metrics is not None:
            self.metrics.merge_spans(window)
