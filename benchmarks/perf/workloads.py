"""The two benchmark workloads; each run is one fresh child process.

``python -m benchmarks.perf.workloads --workload W --seed S --seconds T
--mode setup|run --work-dir DIR [--scale full|tiny] [--trace-dir DIR]``

The child builds its inputs from ``--seed`` (the program only ever
receives the generated JSON bodies and traces), prints ``READY`` once
set up, and in ``run`` mode measures for ``--seconds``, checks every
result and prints ``RESULT <json>`` as its last line.  ``setup`` mode
stops after ``READY``; the harness times several of those to get a
steady ``setup_s``.

Operation ("job") per workload -- the unit ``job_latency_*`` times:

* serve-grid  -- one distinct 96-cell grid, POST to results received;
* serve-churn -- one 1-3 cell job, from its due time to results received.

Each job's results are digested as soon as it returns, outside its
latency, and then dropped: the client's memory does not grow with the
number of jobs a run completes.
"""

from __future__ import annotations

import argparse
import base64
import http.client
import json
import math
import pickle
import queue
import random
import resource
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from .checks import compare_to_reference, op_digest, result_digest
from .common import child_env, percentile, python_module_cmd

#: Trace recipes a grid or job draws from (wire names of the service).
TRACE_KINDS = ("video", "pcmark", "eta_static", "skewed_burst")
PROFILES = ("Nexus", "Honor", "Lenovo")

#: Client poll period for job status (both serve workloads).
POLL_S = 0.02
#: serve-churn latency limit: a job slower than this from its due time is late.
LATE_LIMIT_S = 1.0
#: Keep-alive probes of the service's response path after the timed phase.
KEEPALIVE_PROBES = 10
#: Jobs returned before memory is read.  The service keeps every finished
#: job's results in memory, so reading at a fixed amount of work keeps
#: ``peak_rss_mb`` independent of how many jobs a run gets through.
MEMORY_JOBS = 5
#: serve-grid stops here even inside ``--seconds``: the service would
#: otherwise hold ~9 MB per grid for every grid a faster engine serves.
GRID_MAX_JOBS = 60

SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "serve-grid": {
        "full": {"policies": ("practice", "dual", "heuristic", "capman"),
                 "traces": TRACE_KINDS, "profiles": PROFILES,
                 "ambients": (25.0, 35.0), "trace_s": 300.0,
                 "window_s": 300.0, "record_every": 1},
        "tiny": {"policies": ("dual", "capman"),
                 "traces": ("video", "pcmark"), "profiles": ("Nexus",),
                 "ambients": (25.0,), "trace_s": 60.0,
                 "window_s": 120.0, "record_every": 1},
    },
    "serve-churn": {
        "full": {"rate": 12.0, "trace_s": 60.0, "window_s": 120.0,
                 "record_every": 10},
        "tiny": {"rate": 6.0, "trace_s": 60.0, "window_s": 120.0,
                 "record_every": 10},
    },
}

#: Cells re-run on the scalar oracle after the timed phase, per run.
SPOT_CHECKS = {"serve-grid": 3, "serve-churn": 3}

_POLICY_WIRE = {
    "practice": {"type": "practice", "capacity_mah": 800.0},
    "dual": {"type": "dual", "capacity_mah": 400.0},
    "heuristic": {"type": "heuristic", "capacity_mah": 400.0},
    "capman": {"type": "capman", "capacity_mah": 400.0},
}


def _rng(*parts: Any) -> random.Random:
    return random.Random("/".join(str(p) for p in parts))


def _recipes(rng: random.Random, kinds: Sequence[str],
             duration_s: float) -> Dict[str, Dict[str, Any]]:
    """One seeded trace recipe per kind, named ``<kind>-<trace seed>``."""
    recipes = {}
    for kind in kinds:
        tseed = rng.randrange(2 ** 31)
        recipe: Dict[str, Any] = {"workload": kind, "seed": tseed,
                                  "duration_s": duration_s}
        if kind == "eta_static":
            recipe["eta"] = 0.5
        recipes[f"{kind}-{tseed}"] = recipe
    return recipes


def _peak_rss_mb(service_pid: int) -> float:
    """Peak resident memory so far of this process plus the service, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(f"/proc/{service_pid}/status") as fh:
        service = next(int(line.split()[1]) for line in fh
                       if line.startswith("VmHWM:"))
    return (own + service) / 1024.0


class Op:
    """One timed operation and the digests of what came back."""

    __slots__ = ("k", "start", "end", "ok", "digests", "steps", "error")

    def __init__(self, k: int) -> None:
        self.k = k
        self.start = self.end = 0.0
        self.ok = False
        #: Per-cell result digests, in spec order.
        self.digests: List[str] = []
        self.steps = 0
        self.error: Optional[str] = None

    @property
    def latency_s(self) -> float:
        return self.end - self.start

    def settle(self, results: Sequence[Any]) -> None:
        """Digest a returned job; a contained cell failure fails the job."""
        failures = [r for r in results if not hasattr(r, "service_time_s")]
        if failures:
            self.ok = False
            self.error = f"{len(failures)} cell failure(s): {failures[0]}"
            return
        self.digests = [result_digest(r) for r in results]
        self.steps = sum(int(r.step_count) for r in results)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def _call(port: int, method: str, path: str,
          body: Optional[bytes] = None) -> Tuple[int, bytes]:
    """One request on its own connection, the way urllib and curl talk.

    A kept-alive connection would make every response wait ~40 ms for
    the client's delayed ACK (the handler writes headers and body
    separately with Nagle on) -- and whether it waits flips with the
    connection's ACK mode, which made latencies bimodal.  That stall is
    measured on its own by :meth:`Workload.keepalive_probe`.
    """
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        headers = {"Connection": "close"}
        if body is not None:
            headers["Content-Type"] = "application/json"
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def _decode(body: bytes) -> List[Any]:
    # The blobs come from the service this process launched.
    return [pickle.loads(base64.b64decode(c))
            for c in json.loads(body)["cells"]]


class Workload:
    """Spawns the service launcher and talks to it over HTTP.

    The service keeps ``CapmanService``'s ``cell_workers=1``: each
    job's cells run serially in its runner thread.
    """

    name = ""
    #: Closed loops start the next job when the last returns; the open
    #: loop (serve-churn) follows its arrival schedule instead.
    closed_loop = True

    #: Job runner threads; None keeps ``CapmanService``'s default (2).
    job_runners: Optional[int] = None

    def __init__(self, seed: int, scale: str, work_dir: Path,
                 trace_dir: Optional[Path]) -> None:
        self.seed = seed
        self.scale = scale
        self.size = SIZES[self.name][scale]
        self.work_dir = work_dir
        self.trace_dir = trace_dir
        self.ops: List[Op] = []
        #: op index -> the JSON body it posted (for the oracle spot checks).
        self.bodies: Dict[int, Dict[str, Any]] = {}
        #: Per-layer values the client itself observes (``--trace 1``).
        self.client: Dict[str, float] = {}

    def setup(self) -> None:
        import repro.service  # noqa: F401  (client decodes result pickles)

        cmd = python_module_cmd("benchmarks.perf.serve",
                                "--root", str(self.work_dir / "service"))
        if self.job_runners is not None:
            cmd += ["--job-runners", str(self.job_runners)]
        if self.trace_dir is not None:
            cmd += ["--trace-dir", str(self.trace_dir)]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     env=child_env(), text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("READY "):
            raise RuntimeError(f"service launcher failed to start: {line!r}")
        self.port = int(line.split()[1])
        self.submit_rtt: List[float] = []
        self.results_rtt: List[float] = []
        self.polls = 0
        self.results_bytes = 0
        self.returned = 0
        self.peak_rss_mb: Optional[float] = None

    def teardown(self) -> None:
        proc = getattr(self, "proc", None)
        if proc is None or proc.returncode is not None:
            return
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()

    def measure(self, seconds: float) -> float:
        """Run the timed phase; returns its wall time (s)."""
        raise NotImplementedError

    def spot_check(self, rng: random.Random) -> Tuple[int, int]:
        """(checked, mismatched) sampled cells re-run directly on the
        scalar engine, from the bodies the timed phase posted."""
        from repro.service import parse_spec
        from repro.sim.sweep import ScenarioRunner

        checked = mismatched = 0
        for op, i in self._sample(rng):
            body = self.bodies[op.k]
            cell = parse_spec(body).expand()[i]
            one = dict(body,
                       policies={cell.policy_key: body["policies"][cell.policy_key]},
                       traces={cell.trace_key: body["traces"][cell.trace_key]},
                       profiles=[cell.profile_key],
                       ambients_c=[cell.ambient_c])
            direct = ScenarioRunner(workers=1).run(parse_spec(one)).results[0]
            checked += 1
            mismatched += result_digest(direct) != op.digests[i]
        return checked, mismatched

    def consistency(self) -> int:
        """Mismatches between results that must be identical (0 = none)."""
        return 0

    def direct_ops(self, count: int) -> Iterator[List[Any]]:
        """Results of ops ``0..count-1`` on the direct library path
        (what ``reference.json`` stores digests of)."""
        raise NotImplementedError

    def _sample(self, rng: random.Random) -> List[Tuple[Op, int]]:
        cells = [(op, i) for op in self.ops if op.ok
                 for i in range(len(op.digests))]
        return rng.sample(cells, min(SPOT_CHECKS[self.name], len(cells)))

    # ------------------------------------------------------------------
    def finish(self, wall_s: float) -> Dict[str, Any]:
        """Reference, oracle and consistency checks -> the RESULT record."""
        done = [op for op in self.ops if op.ok]
        reference = compare_to_reference(
            self.scale, self.name, self.seed,
            {op.k: op_digest(op.digests) for op in done})
        checked, mismatched = self.spot_check(_rng(self.name, self.seed, "spot"))
        inconsistent = self.consistency()
        failed = len(self.ops) - len(done)
        # Any wrong output invalidates the whole run's numbers.
        if reference["mismatched"] or mismatched or inconsistent:
            failed = len(self.ops)
        if self.closed_loop:
            rates = [op.steps / op.latency_s for op in done if op.latency_s > 0]
            steps_per_s = percentile(rates, 50)
        else:
            steps_per_s = sum(op.steps for op in done) / wall_s
        return {
            "attempted": len(self.ops),
            "failed": failed,
            "correct": failed == 0 and bool(self.ops),
            "steps": sum(op.steps for op in done),
            "device_steps_per_s": steps_per_s,
            "peak_rss_mb": self.peak_rss_mb,
            "latencies_s": [op.latency_s for op in done],
            "job_steps": [op.steps for op in done],
            "client": self.client,
            "checks": {"reference": reference,
                       "oracle": {"checked": checked, "mismatched": mismatched},
                       "inconsistent": inconsistent},
            "errors": [op.error for op in self.ops if op.error][:3],
        }

    def status(self, job: str) -> Dict[str, Any]:
        """One status poll; a non-200 reply reads as a failed job."""
        self.polls += 1
        status, reply = _call(self.port, "GET", f"/jobs/{job}")
        if status != 200:
            return {"state": "failed", "error": f"status {status}"}
        return json.loads(reply)

    def fetch(self, op: Op, job: str) -> None:
        """GET a finished job's results; ends the op's latency."""
        t = time.perf_counter()
        status, reply = _call(self.port, "GET", f"/jobs/{job}/results")
        op.end = time.perf_counter()
        self.results_rtt.append(op.end - t)
        op.ok = status == 200
        if not op.ok:
            op.error = f"results {status}"
            return
        self.results_bytes += len(reply)
        op.settle(_decode(reply))
        self.returned += 1
        if self.returned == MEMORY_JOBS:
            self.peak_rss_mb = _peak_rss_mb(self.proc.pid)

    def after_timed_phase(self) -> None:
        """Service-side numbers read from outside, then stop the service."""
        status, body = _call(self.port, "GET", "/metrics")
        if status == 200:
            snap = json.loads(body)
            wait = snap.get("spans", {}).get("job.queue_wait", {})
            if wait.get("count"):
                self.client["service.queue_wait_mean_s"] = (
                    wait["total_s"] / wait["count"])
            counters = snap.get("counters", {})
            seen = counters.get("jobs.submitted", 0) + counters.get(
                "jobs.deduped", 0)
            if seen:
                self.client["service.dedupe_ratio"] = (
                    counters.get("jobs.deduped", 0) / seen)
        self.keepalive_probe()
        if self.peak_rss_mb is None:
            self.peak_rss_mb = _peak_rss_mb(self.proc.pid)
        n = max(1, len(self.ops))
        self.client.update({
            "service.submit_rtt_p50_s": percentile(self.submit_rtt, 50),
            "service.submit_rtt_p95_s": percentile(self.submit_rtt, 95),
            "service.results_rtt_p50_s": percentile(self.results_rtt, 50),
            "service.polls_per_job": self.polls / n,
            "service.results_bytes": self.results_bytes / n,
        })
        self.teardown()
        root = self.work_dir / "service"
        self.client["durability.journal_bytes"] = sum(
            p.stat().st_size for p in root.rglob("*.journal"))

    def keepalive_probe(self) -> None:
        """Round trip of ``GET /healthz`` on one kept-alive connection."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        rtts = []
        try:
            for _ in range(KEEPALIVE_PROBES):
                t = time.perf_counter()
                conn.request("GET", "/healthz")
                conn.getresponse().read()
                rtts.append(time.perf_counter() - t)
                time.sleep(POLL_S)
        finally:
            conn.close()
        self.client["service.keepalive_rtt_p50_s"] = percentile(rtts, 50)

class ServeGrid(Workload):
    """Closed loop, one client: distinct 96-cell grids over HTTP."""

    name = "serve-grid"

    def body(self, k: int) -> Dict[str, Any]:
        s = self.size
        return {
            "policies": {p: _POLICY_WIRE[p] for p in s["policies"]},
            "traces": _recipes(_rng(self.name, self.seed, k), s["traces"],
                               s["trace_s"]),
            "profiles": list(s["profiles"]),
            "ambients_c": list(s["ambients"]),
            "max_duration_s": s["window_s"],
            "record_every": s["record_every"],
        }

    def measure(self, seconds: float) -> float:
        lags: List[float] = []
        t0 = due = time.perf_counter()
        while (time.perf_counter() - t0 < seconds
               and len(self.ops) < GRID_MAX_JOBS):
            op = Op(len(self.ops))
            self.ops.append(op)
            body = self.bodies[op.k] = self.body(op.k)
            payload = json.dumps(body).encode()
            op.start = time.perf_counter()
            # A closed loop's next job is due when the last one returns.
            lags.append(op.start - due)
            status, ack = _call(self.port, "POST", "/jobs", payload)
            self.submit_rtt.append(time.perf_counter() - op.start)
            if status not in (200, 201):
                op.end, op.error = time.perf_counter(), f"POST {status}"
                continue
            info = json.loads(ack)
            job = info["job_id"]
            while info["state"] not in ("done", "failed"):
                time.sleep(POLL_S)
                info = self.status(job)
            if info["state"] == "done":
                self.fetch(op, job)
            else:
                op.end = time.perf_counter()
                op.error = f"job failed: {info.get('error')}"
            due = op.end
        self.client["load.generator_lag_p95_s"] = percentile(lags, 95)
        return time.perf_counter() - t0

    def direct_ops(self, count: int) -> Iterator[List[Any]]:
        from repro.service import parse_spec
        from repro.sim.sweep import ScenarioRunner

        for k in range(count):
            yield ScenarioRunner(workers=1).run(parse_spec(self.body(k))).results


class ServeChurn(Workload):
    """Open loop: seeded Poisson arrivals of small, overlapping jobs.

    Per block of ten jobs: four fresh (1-3 new cells), three that
    overlap an earlier job (cache reads plus one new cell) and three
    exact resubmissions of an earlier job (content-hash dedupe).
    Arrival times are a Poisson process conditioned on its count: the
    count is ``rate * seconds`` and the times are sorted uniforms, so
    the offered load is fixed while the burst pattern follows the seed.
    """

    name = "serve-churn"
    closed_loop = False
    # Two runner threads share the JobStore's SweepCache, whose FileLock
    # is re-entrant per instance but not thread-safe: when two jobs
    # write the cache at once, one release can clear or close the
    # other's descriptor (TypeError, or a leaked flock that hangs the
    # next writer).  Overlapping jobs are this workload's point, so it
    # runs one runner until the lock is fixed; serve-grid's closed
    # loop never overlaps jobs and keeps the default.
    job_runners = 1
    _GROUP_POLICIES = ("dual", "heuristic", "capman")
    _AMBIENTS = (25.0, 35.0)

    def jobs_for(self, count: int) -> List[Dict[str, Any]]:
        """Jobs ``0..count-1``; job ``k`` depends only on the seed and ``k``."""
        s = self.size
        kinds: List[str] = []
        fresh_sizes: List[int] = []
        for block in range(math.ceil(count / 10)):
            rng = _rng(self.name, self.seed, "mix", block)
            mix = ["fresh"] * 4 + ["overlap"] * 3 + ["resubmit"] * 3
            sizes = [1, 2, 3, 2]
            rng.shuffle(mix)
            rng.shuffle(sizes)
            kinds += mix
            fresh_sizes += sizes
        rng = _rng(self.name, self.seed, "jobs")
        sizes_iter = iter(fresh_sizes)
        jobs: List[Dict[str, Any]] = []

        def new_trace() -> Dict[str, Dict[str, Any]]:
            return _recipes(rng, [rng.choice(TRACE_KINDS)], s["trace_s"])

        for k in range(count):
            kind = kinds[k] if jobs else "fresh"
            if kind == "resubmit":
                jobs.append(dict(rng.choice(jobs), kind=kind))
                continue
            if kind == "fresh":
                group = (rng.choice(self._GROUP_POLICIES), rng.choice(PROFILES),
                         rng.choice(self._AMBIENTS))
                # Job 0 is always fresh, so one block may need a fifth size.
                traces = {}
                for _ in range(next(sizes_iter, 2)):
                    traces.update(new_trace())
            else:
                base = rng.choice(jobs)
                group = base["group"]
                names = list(base["traces"])
                keep = rng.sample(names, min(len(names), rng.randint(1, 2)))
                traces = {n: base["traces"][n] for n in keep}
                traces.update(new_trace())
            policy, profile, ambient = group
            jobs.append({"kind": kind, "group": group, "traces": traces,
                         "body": {"policies": {policy: _POLICY_WIRE[policy]},
                                  "traces": traces, "profiles": [profile],
                                  "ambients_c": [ambient],
                                  "max_duration_s": s["window_s"],
                                  "record_every": s["record_every"]}})
        return jobs

    def measure(self, seconds: float) -> float:
        count = max(1, round(self.size["rate"] * seconds))
        rng = _rng(self.name, self.seed, "arrivals", count)
        due = sorted(rng.uniform(0.0, seconds) for _ in range(count))
        self.jobs = self.jobs_for(count)
        self.bodies = {k: job["body"] for k, job in enumerate(self.jobs)}
        self.ops = [Op(k) for k in range(count)]
        lags: List[float] = []
        handoff: "queue.Queue[Optional[Tuple[Op, str]]]" = queue.Queue()

        def poller() -> None:
            inflight: List[Tuple[Op, str]] = []
            generating = True
            while generating or inflight:
                while True:
                    try:
                        item = handoff.get_nowait()
                    except queue.Empty:
                        break
                    if item is None:
                        generating = False
                    else:
                        inflight.append(item)
                still = []
                for op, job in inflight:
                    info = self.status(job)
                    if info["state"] == "done":
                        self.fetch(op, job)
                    elif info["state"] == "failed":
                        op.end = time.perf_counter()
                        op.error = f"job failed: {info.get('error')}"
                    else:
                        still.append((op, job))
                inflight = still
                time.sleep(POLL_S)

        thread = threading.Thread(target=poller, name="churn-poller")
        t0 = time.perf_counter()
        thread.start()
        try:
            for op, at, job in zip(self.ops, due, self.jobs):
                op.start = t0 + at
                wait = op.start - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = time.perf_counter()
                lags.append(sent - op.start)
                status, ack = _call(self.port, "POST", "/jobs",
                                    json.dumps(job["body"]).encode())
                self.submit_rtt.append(time.perf_counter() - sent)
                if status in (200, 201):
                    handoff.put((op, json.loads(ack)["job_id"]))
                else:
                    op.end, op.error = time.perf_counter(), f"POST {status}"
        finally:
            handoff.put(None)
            thread.join()
        late = sum(1 for op in self.ops
                   if not op.ok or op.latency_s > LATE_LIMIT_S)
        self.client["load.late_ratio"] = late / count
        self.client["load.generator_lag_p95_s"] = percentile(lags, 95)
        return max(op.end for op in self.ops) - t0

    def consistency(self) -> int:
        """A cell served from the cache or a deduped job equals its first run."""
        seen: Dict[Tuple, str] = {}
        bad = 0
        for job, op in zip(self.jobs, self.ops):
            if op.ok:
                for name, digest in zip(job["traces"], op.digests):
                    bad += seen.setdefault((job["group"], name), digest) != digest
        return bad

    def direct_ops(self, count: int) -> Iterator[List[Any]]:
        from repro.service import parse_spec
        from repro.sim.sweep import ScenarioRunner

        runner = ScenarioRunner(workers=1, cache=self.work_dir / "cache")
        for job in self.jobs_for(count):
            yield runner.run(parse_spec(job["body"])).results


WORKLOADS = {cls.name: cls for cls in (ServeGrid, ServeChurn)}


# ----------------------------------------------------------------------
# Child entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf.workloads")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", default="full", choices=("full", "tiny"))
    parser.add_argument("--mode", default="run", choices=("run", "setup"))
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--trace-dir")
    args = parser.parse_args(argv)

    trace_dir = Path(args.trace_dir) if args.trace_dir else None
    wl = WORKLOADS[args.workload](args.seed, args.scale, Path(args.work_dir),
                                  trace_dir)
    try:
        wl.setup()
        print("READY", flush=True)
        if args.mode == "setup":
            return 0
        if trace_dir is None:
            wall_s = wl.measure(args.seconds)
        else:
            from .tracing import Tracer, install

            tracer = Tracer(trace_dir, role="client")
            install(tracer)
            with tracer.root("harness.timed"):
                wall_s = wl.measure(args.seconds)
            tracer.flush()
        wl.after_timed_phase()
        print("RESULT " + json.dumps(wl.finish(wall_s)), flush=True)
        return 0
    finally:
        wl.teardown()


if __name__ == "__main__":
    sys.exit(main())
