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
  :meth:`~repro.sim.sweep.ScenarioRunner.run_or_resume` -- the
  :class:`~repro.sim.executors.LocalProcessExecutor` by default, or
  the distributed TCP backend when ``CAPMAN_DIST_WORKERS`` is set.

The store never touches the process-global observability session:
request/queue metrics go to the service-owned registry handed in by
the app, keeping the repo's obs-off invisibility guarantees intact.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import queue
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..durability.journal import RunJournal, decode_blob, encode_blob
from ..obs.tracer import Tracer
from ..sim.executors import SweepExecutor
from ..sim.retry import RetryPolicy
# ``cell_key`` is imported for the per-layer tracer in benchmarks/perf,
# which wraps it here; identities hash through the batched ``cell_keys``.
from ..sim.sweep import (ScenarioRunner, SweepCache, SweepResult, SweepSpec,  # noqa: F401
                         cell_key, cell_keys, code_salt)
from .schemas import ApiError

__all__ = ["Job", "JobStore", "job_id_for", "DIST_WORKERS_ENV"]

#: Set to a positive worker count to execute service jobs on the
#: distributed TCP backend (spawned local worker subprocesses) instead
#: of the in-process pool.
DIST_WORKERS_ENV = "CAPMAN_DIST_WORKERS"

#: Job lifecycle states (the service's state machine; see DESIGN §15).
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"


def job_id_for(spec: SweepSpec, salt: Optional[str] = None) -> str:
    """Content-hash job identity: the grid *is* the ID.

    Hashes the sorted cell keys (plus the sweep kind) under the same
    code-version salt the result cache uses, so two textually
    different requests that expand to the same physics share one job,
    and a code change mints fresh identities instead of serving stale
    results.
    """
    salt = salt if salt is not None else code_salt()
    digest = hashlib.sha256()
    digest.update(spec.kind.encode())
    for key in sorted(cell_keys(spec.expand(), salt)):
        digest.update(key.encode())
    return digest.hexdigest()[:32]


@dataclass
class Job:
    """One submitted grid and everything known about its execution."""

    job_id: str
    spec: SweepSpec
    state: str = QUEUED
    error: Optional[str] = None
    n_cells: int = 0
    submitted_monotonic: float = 0.0
    #: Live runner while executing (its progress() feeds pollers).
    runner: Optional[ScenarioRunner] = field(default=None, repr=False)
    result: Optional[SweepResult] = field(default=None, repr=False)
    #: Stats dict frozen at completion (survives in-memory only; a
    #: recovered done job rebuilds it when results are materialised).
    stats: Optional[Dict[str, Any]] = field(default=None, repr=False)


class JobStore:
    """Journal-backed job registry + runner pool (thread-safe)."""

    def __init__(
        self,
        root: Union[str, Path],
        cell_workers: int = 1,
        job_runners: int = 2,
        metrics: Any = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.cell_workers = max(1, cell_workers)
        self.cache = SweepCache(self.root / "cache")
        self.metrics = metrics
        self.retry = retry
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
        for record in records:
            data = record["data"]
            if record["type"] == "job_submit":
                spec: SweepSpec = pickle.loads(decode_blob(data["spec"]))
                self._jobs[data["job_id"]] = Job(
                    job_id=data["job_id"], spec=spec,
                    n_cells=data.get("n_cells", len(spec)),
                    submitted_monotonic=time.monotonic())
            else:
                job = self._jobs.get(data["job_id"])
                if job is not None:
                    job.state = DONE if data.get("ok") else FAILED
                    job.error = data.get("error")
        for job in self._jobs.values():
            if job.state in (QUEUED, RUNNING):
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
        with self._lock:
            existing = self._jobs.get(job_id)
            if existing is not None:
                self._count("jobs.deduped")
                return existing, False
            job = Job(job_id=job_id, spec=spec, n_cells=len(spec),
                      submitted_monotonic=time.monotonic())
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
        runner = job.runner
        if runner is not None:
            out["progress"] = runner.progress().as_dict()
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
        exactly what the end-to-end tests assert.
        """
        job = self.get(job_id)
        if job.state != DONE:
            raise ApiError(409, "job_not_done",
                           f"job {job_id} is {job.state}")
        result = self._materialise(job)
        return [pickle.dumps(r, protocol=4) for r in result.results]

    def _materialise(self, job: Job) -> SweepResult:
        """The job's SweepResult, rebuilt from its run journal if the
        store restarted since the job finished (every cell replays as
        committed -- nothing recomputes)."""
        if job.result is not None:
            return job.result
        runner = self._build_runner(job, executor=None)
        result = runner.resume()
        with self._lock:
            if job.result is None:
                job.result = result
                job.stats = result.stats.as_dict()
        return job.result

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _executor(self) -> Optional[SweepExecutor]:
        """A fresh per-job executor when the env asks for distribution."""
        try:
            n = int(os.environ.get(DIST_WORKERS_ENV, "0") or "0")
        except ValueError:
            n = 0
        if n <= 0:
            return None
        from ..sim.distributed import DistributedExecutor

        return DistributedExecutor(spawn_workers=n, lease_timeout_s=10.0)

    def _build_runner(self, job: Job,
                      executor: Optional[SweepExecutor]) -> ScenarioRunner:
        job_dir = self.root / "jobs" / job.job_id
        job_dir.mkdir(parents=True, exist_ok=True)
        kwargs: Dict[str, Any] = {}
        if self.retry is not None:
            kwargs["retry"] = self.retry
        return ScenarioRunner(
            workers=self.cell_workers,
            cache=self.cache,
            journal=job_dir / "run.journal",
            executor=executor,
            **kwargs,
        )

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
        runner = self._build_runner(job, executor=self._executor())
        with self._lock:
            job.runner = runner
            job.state = RUNNING
        tracer = Tracer()
        mark = tracer.mark()
        span = tracer.start("job.exec", job=job.job_id,
                            cells=job.n_cells)
        started = time.monotonic()
        try:
            result = runner.run_or_resume(job.spec)
        except Exception as exc:  # infrastructure failure, not a cell
            span.finish()
            self._merge_spans(tracer.window(mark))
            self._finish(job, ok=False,
                         error=f"{type(exc).__name__}: {exc}")
            return
        span.finish()
        self._merge_spans(tracer.window(mark))
        self._observe("job.exec_s", time.monotonic() - started)
        failures = result.failures
        with self._lock:
            job.result = result
            job.stats = result.stats.as_dict()
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
