"""Service throughput: the HTTP job path priced honestly.

Runs a 96-cell Dual-policy grid twice -- cold serial in-process on the
scalar engine, then submitted as JSON to an in-process
:class:`CapmanService` over real HTTP and polled to completion -- and
merges a ``"service"`` section into ``BENCH_sim.json`` for
``scripts/bench_gate.py`` (alongside the sweep and fleet sections).

The grid is large enough (at least ``FLEET_MIN_ROWS`` fleet-eligible
cells) that the served job runs as one fleet batch, so the timed rate
tracks the engine rather than HTTP round-trips and status polling;
``cells_fleet`` is gated exactly so a grid that silently fell back to
the scalar path fails the gate, and ``cache_files`` (entries in the
service's ``cache/`` directory after the job, ``.lock`` aside) is
gated exactly so the grid's results stay one pack file.  The section
also records ``journal_bytes``, the size of the served job's
``run.journal``: its commits point into that pack instead of carrying
the results, so the journal must stay under a tenth of the served
result bytes.  The section pins what the service must never regress
on:

* exactly-once accounting -- ``failed_cells`` and ``double_commits``
  are exact-zero gated fields, audited from the job's run journal;
* content-hash dedupe -- resubmitting the identical grid must come
  back acknowledged-not-created (``deduped_jobs`` is exact);
* byte-identity with the serial engine (asserted here, cell by cell,
  on the HTTP-served result blobs);
* a relative throughput floor on ``steps_per_sec`` so API overhead
  (framing, WAL fsyncs, poll loops) cannot silently balloon.

Deterministic work accounting (``cells_total``, ``cells_fleet``,
``steps_total``, ``cache_files``) is gated exactly; rates relatively.  The serial
reference passes an explicit executor, which keeps it off the fleet,
so ``serial_steps_per_sec`` stays the scalar engine's rate.
"""

import base64
import json
import pickle
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro.analysis.reporting import format_table
from repro.durability.journal import journal_commit_counts
from repro.service import CapmanService, parse_spec
from repro.sim.executors import LocalProcessExecutor
from repro.sim.sweep import FLEET_MIN_ROWS, ScenarioRunner

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_sim.json"

CAPACITIES = (300.0, 350.0, 400.0, 450.0, 500.0, 550.0, 600.0, 650.0)
PROFILES = ["Nexus", "Honor", "Lenovo"]
AMBIENTS_C = [20.0, 25.0, 30.0, 35.0]
TRACE_S = 300.0
WINDOW_S = 1800.0
SEED = 1

#: The JSON grid a client would POST; the serial reference run parses
#: the very same body, so byte-identity is apples to apples.
GRID = {
    "policies": {
        f"Dual{int(mah)}": {"type": "dual", "capacity_mah": mah}
        for mah in CAPACITIES
    },
    "traces": {"video": {"workload": "video", "seed": SEED,
                         "duration_s": TRACE_S}},
    "profiles": PROFILES,
    "ambients_c": AMBIENTS_C,
    "max_duration_s": WINDOW_S,
}


def _api(base, method, path, body=None, timeout=30.0):
    data = None
    headers = {}
    if body is not None:
        data = json.dumps(body).encode("utf-8")
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(base + path, data=data,
                                     method=method, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _measure(tmp_path):
    spec = parse_spec(GRID)

    t0 = time.perf_counter()
    serial = ScenarioRunner(executor=LocalProcessExecutor()).run(spec)
    serial_wall = time.perf_counter() - t0

    root = tmp_path / "service-bench"
    service = CapmanService(root, job_runners=1).start()
    try:
        host, port = service.address
        base = f"http://{host}:{port}"

        t0 = time.perf_counter()
        code, ack = _api(base, "POST", "/jobs", body=GRID)
        assert code == 201, ack
        submit_latency = time.perf_counter() - t0
        job_id = ack["job_id"]
        while True:
            code, status = _api(base, "GET", f"/jobs/{job_id}")
            if code == 200 and status["state"] in ("done", "failed"):
                break
            time.sleep(0.02)
        service_wall = time.perf_counter() - t0
        assert status["state"] == "done", status

        code, results = _api(base, "GET", f"/jobs/{job_id}/results")
        assert code == 200, results
        served = [base64.b64decode(cell) for cell in results["cells"]]
        cache_files = sum(1 for path in (root / "cache").iterdir()
                          if path.name != ".lock")

        # Resubmission of the identical grid: pure content-hash dedupe.
        code, again = _api(base, "POST", "/jobs", body=GRID)
        assert code == 200 and not again["created"], again
        code, metrics = _api(base, "GET", "/metrics")
        deduped = int(metrics["counters"].get("jobs.deduped", 0))
    finally:
        service.close()

    journal = root / "jobs" / job_id / "run.journal"
    journal_bytes = journal.stat().st_size
    return (spec, serial, serial_wall, served, service_wall,
            submit_latency, status, deduped, journal, cache_files,
            journal_bytes)


def test_service_throughput(benchmark, tmp_path, monkeypatch):
    monkeypatch.delenv("CAPMAN_DIST_SECRET", raising=False)
    (spec, serial, serial_wall, served, service_wall, submit_latency,
     status, deduped, journal, cache_files,
     journal_bytes) = benchmark.pedantic(
        lambda: _measure(tmp_path), rounds=1, iterations=1)

    # Exactly-once audit straight from the durable record.
    counts = journal_commit_counts(journal)
    double_commits = sum(1 for n in counts.values() if n > 1)
    failed_cells = status["stats"]["cells_failed"]
    cells_fleet = status["stats"]["cells_fleet"]

    steps_total = sum(r.step_count for r in serial.results)
    serial_rate = steps_total / max(serial_wall, 1e-9)
    service_rate = steps_total / max(service_wall, 1e-9)

    print()
    print(format_table(
        ["run", "wall (s)", "steps/s", "notes"],
        [
            ["serial in-process", serial_wall, serial_rate, "-"],
            ["service (HTTP)", service_wall, service_rate,
             f"submit {submit_latency * 1e3:.1f} ms"],
        ],
        title=f"Sweep service -- {len(spec)} cells over HTTP, "
              f"journalled, submit-to-done",
    ))

    section = {
        "cells_total": len(spec),
        "cells_fleet": cells_fleet,
        "steps_total": steps_total,
        "deduped_jobs": deduped,
        "failed_cells": failed_cells,
        "double_commits": double_commits,
        "cache_files": cache_files,
        "journal_bytes": journal_bytes,
        "steps_per_sec": service_rate,
        "serial_steps_per_sec": serial_rate,
        "serial_wall_s": serial_wall,
        "service_wall_s": service_wall,
        "submit_latency_s": submit_latency,
    }
    payload = {}
    if BENCH_PATH.exists():
        payload = json.loads(BENCH_PATH.read_text())
    payload["service"] = section
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"  merged service section into {BENCH_PATH}")

    # The path measured is the certified one: HTTP-served results are
    # byte-identical to the serial engine, committed exactly once, and
    # the resubmission never re-entered the queue.
    assert served == [pickle.dumps(r, protocol=4) for r in serial.results]
    assert serial.stats.cells_fleet == 0, serial.stats
    assert len(spec) >= FLEET_MIN_ROWS and cells_fleet == len(spec), section
    assert sorted(counts) == [cell.index for cell in spec.expand()]
    assert double_commits == 0, section
    assert failed_cells == 0, section
    assert deduped == 1, section
    assert cache_files == 1, section
    # One durable copy of each result: the commits only point at it.
    served_bytes = sum(map(len, served))
    assert journal_bytes < served_bytes / 10, (journal_bytes, served_bytes)
