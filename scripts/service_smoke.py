#!/usr/bin/env python
"""Kill-9 resume smoke drill for the sweep *service* (HTTP layer).

One level up the stack from ``resume_smoke.py``: the victim is the
whole API server, not a bare runner.  End to end:

1. boots ``python -m repro.service`` on an ephemeral port with a
   fresh state root and submits a slow grid over HTTP (the
   ``slow_dual`` policy burns wall time per cell, so the kill lands
   mid-sweep);
2. watches the job's per-cell run journal until some -- but not all --
   cells have durable commits, then SIGKILLs the server;
3. restarts the service on the *same* state root: WAL replay must
   surface the job unprompted and resume its sweep;
4. checks the service durability guarantees:

   * every cell committed exactly once across both incarnations
     (zero lost, zero double-committed),
   * everything committed before the kill was replayed, not recomputed
     (``cells_resumed`` covers the pre-kill commits), and
   * the HTTP-served results are byte-identical to a direct in-process
     :class:`ScenarioRunner` run of the same grid.

Exits 0 on success, 1 on any violated guarantee.  CI runs this as the
``service-smoke`` job; it is also handy locally after touching the
service or durability layers::

    python scripts/service_smoke.py
"""

import base64
import json
import os
import pickle
import shutil
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

_REPO = Path(__file__).resolve().parents[1]
if str(_REPO / "src") not in sys.path:
    sys.path.insert(0, str(_REPO / "src"))

from repro.durability.journal import journal_commit_counts  # noqa: E402
from repro.service.schemas import parse_spec  # noqa: E402
from repro.sim.sweep import ScenarioRunner  # noqa: E402

CAPACITIES = (30, 40, 50, 60, 70, 80)
DELAY_S = 0.5

#: The crash-drill grid: six wall-time-burning one-policy cells.
GRID = {
    "policies": {
        f"Slow{mah}": {"type": "slow_dual", "capacity_mah": float(mah),
                       "delay_s": DELAY_S}
        for mah in CAPACITIES
    },
    "traces": {"V": {"workload": "video", "seed": 5, "duration_s": 120.0}},
    "max_duration_s": 900.0,
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


def _spawn(root: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_REPO / "src") + os.pathsep \
        + env.get("PYTHONPATH", "")
    env.pop("CAPMAN_DIST_SECRET", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--root", str(root),
         "--job-runners", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env)
    line = proc.stdout.readline()
    if not line.startswith("listening on http://"):
        raise RuntimeError(f"service did not announce a port: {line!r}")
    proc.base_url = line.split("listening on ", 1)[1].strip()
    return proc


def _wait_for_commits(journal: Path, minimum: int,
                      deadline_s: float = 120.0) -> int:
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if journal.exists():
            committed = len(journal_commit_counts(journal))
            if committed >= minimum:
                return committed
        time.sleep(0.02)
    raise RuntimeError(f"no {minimum} commits in {journal} "
                       f"within {deadline_s}s")


def _wait_for_done(base: str, job_id: str,
                   deadline_s: float = 240.0) -> dict:
    deadline = time.monotonic() + deadline_s
    status = None
    while time.monotonic() < deadline:
        code, status = _api(base, "GET", f"/jobs/{job_id}")
        if code == 200 and status.get("state") in ("done", "failed"):
            return status
        time.sleep(0.1)
    raise RuntimeError(f"job {job_id} not terminal within {deadline_s}s "
                       f"(last: {status})")


def _drill(work: Path) -> int:
    total = len(CAPACITIES)
    root = work / "state"

    print(f"[service-smoke] booting server one (root {root})...")
    first = _spawn(root)
    try:
        code, ack = _api(first.base_url, "POST", "/jobs", body=GRID)
        if code != 201:
            print(f"[service-smoke] FAIL: submit returned {code}: {ack}")
            return 1
        job_id = ack["job_id"]
        run_journal = root / "jobs" / job_id / "run.journal"
        print(f"[service-smoke] job {job_id} accepted "
              f"({ack['cells']} cells)")

        committed_at_kill = _wait_for_commits(run_journal, minimum=2)
        first.kill()
        first.wait(timeout=30)
    finally:
        if first.poll() is None:
            first.kill()
            first.wait(timeout=30)

    print(f"[service-smoke] killed -9 with {committed_at_kill}/{total} "
          f"cells committed")
    if not 1 <= committed_at_kill < total:
        print("[service-smoke] FAIL: kill did not land mid-sweep; "
              "slow the grid down")
        return 1
    pre_kill = journal_commit_counts(run_journal)
    if set(pre_kill.values()) != {1}:
        print(f"[service-smoke] FAIL: pre-kill journal already has "
              f"duplicate commits: {pre_kill}")
        return 1

    print("[service-smoke] booting server two on the same root...")
    second = _spawn(root)
    try:
        code, status = _api(second.base_url, "GET", f"/jobs/{job_id}")
        if code != 200:
            print(f"[service-smoke] FAIL: restarted server does not know "
                  f"the job ({code}: {status})")
            return 1
        status = _wait_for_done(second.base_url, job_id)
        if status["state"] != "done":
            print(f"[service-smoke] FAIL: job finished as {status}")
            return 1

        ok = True
        counts = journal_commit_counts(run_journal)
        if sorted(counts) != list(range(total)):
            print(f"[service-smoke] FAIL: lost cells -- committed "
                  f"{sorted(counts)}, expected {list(range(total))}")
            ok = False
        if set(counts.values()) != {1}:
            print(f"[service-smoke] FAIL: double commits: {counts}")
            ok = False
        stats = status["stats"]
        if stats["cells_resumed"] < max(committed_at_kill, len(pre_kill)):
            print(f"[service-smoke] FAIL: resumed only "
                  f"{stats['cells_resumed']} cells, expected at least "
                  f"{max(committed_at_kill, len(pre_kill))}")
            ok = False
        if stats["cells_resumed"] + stats["cells_computed"] != total:
            print(f"[service-smoke] FAIL: resumed + computed != total "
                  f"({stats})")
            ok = False

        code, results = _api(second.base_url, "GET",
                             f"/jobs/{job_id}/results")
        if code != 200 or results["count"] != total:
            print(f"[service-smoke] FAIL: results fetch ({code})")
            return 1
        served = [base64.b64decode(cell) for cell in results["cells"]]
    finally:
        second.kill()
        second.wait(timeout=30)

    direct = ScenarioRunner().run(parse_spec(GRID))
    if served != [pickle.dumps(r, protocol=4) for r in direct.results]:
        print("[service-smoke] FAIL: HTTP-served results are not "
              "byte-identical to the direct in-process run")
        ok = False
    if ok:
        print(f"[service-smoke] OK: {len(pre_kill)} cells replayed from "
              f"the journal, {stats['cells_computed']} computed, all "
              f"{total} committed exactly once and byte-identical to "
              f"the direct run")
    return 0 if ok else 1


def main() -> int:
    """Run the drill in a fresh temp directory: removed on success,
    kept (and its path printed) on failure."""
    work = Path(tempfile.mkdtemp(prefix="service-smoke-"))
    status = 1
    try:
        status = _drill(work)
    finally:
        if status == 0:
            shutil.rmtree(work, ignore_errors=True)
        else:
            print(f"[service-smoke] kept {work} for inspection")
    return status


if __name__ == "__main__":
    sys.exit(main())
