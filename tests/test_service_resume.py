"""Crash-safety drill for the service: SIGKILL mid-sweep, restart,
prove zero lost / double-committed / recomputed cells.

The victim is the whole API server (``python -m repro.service`` in a
subprocess).  The parent

1. boots the service on an ephemeral port, submits a slow grid (the
   wall-time-burning ``slow_dual`` policy keeps cells in flight long
   enough for the kill to land mid-sweep);
2. watches the job's per-cell run journal until some -- but not all --
   cells have durable commits, then SIGKILLs the server;
3. restarts the service on the *same state root*: WAL replay must
   re-enqueue the job and resume its sweep;
4. asserts the finished job committed every cell exactly once, resumed
   (rather than recomputed) everything committed before the kill, and
   served results byte-identical to a direct in-process run.
"""

import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

from repro.durability.journal import journal_commit_counts
from repro.sim.sweep import ScenarioRunner
from repro.service.schemas import parse_spec

from service_client import api, slow_grid, wait_for_job

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Grid geometry: 6 one-policy cells, each burning ~DELAY_S of wall
#: time, so the kill window after the second commit is wide.
CAPACITIES = (30, 40, 50, 60, 70, 80)
DELAY_S = 0.5


def _spawn(root: Path) -> subprocess.Popen:
    """Start ``python -m repro.service`` and wait for its port line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("CAPMAN_DIST_SECRET", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--root", str(root),
         "--job-runners", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env)
    line = proc.stdout.readline()
    assert line.startswith("listening on http://"), line
    proc.base_url = line.split("listening on ", 1)[1].strip()
    return proc


def _wait_for_commits(journal: Path, minimum: int,
                      deadline_s: float = 60.0) -> int:
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if journal.exists():
            committed = len(journal_commit_counts(journal))
            if committed >= minimum:
                return committed
        time.sleep(0.02)
    raise AssertionError(f"no {minimum} commits in {journal} "
                         f"within {deadline_s}s")


def test_sigkilled_service_resumes_with_zero_lost_or_recomputed_cells(
        tmp_path):
    root = tmp_path / "state"
    grid = slow_grid(capacities=CAPACITIES, delay_s=DELAY_S)
    total = len(CAPACITIES)

    first = _spawn(root)
    try:
        code, ack = api(first.base_url, "POST", "/jobs", body=grid)
        assert code == 201, ack
        job_id = ack["job_id"]
        run_journal = root / "jobs" / job_id / "run.journal"

        # Kill only once real commits exist and work remains: the
        # classic torn-sweep state.
        committed_at_kill = _wait_for_commits(run_journal, minimum=2)
        first.kill()
        first.wait(timeout=30)
        assert committed_at_kill < total, \
            "kill landed after the sweep finished; slow the grid down"
    finally:
        if first.poll() is None:
            first.kill()
            first.wait(timeout=30)

    # Commits made before the kill are durable and unique already.
    pre_kill = journal_commit_counts(run_journal)
    assert pre_kill and set(pre_kill.values()) == {1}

    second = _spawn(root)
    try:
        # The WAL ack was durable: the restarted server knows the job
        # without being told.
        code, status = api(second.base_url, "GET", f"/jobs/{job_id}")
        assert code == 200, status

        status = wait_for_job(second.base_url, job_id, deadline_s=240.0)
        assert status["state"] == "done", status

        # Exactly-once accounting: every cell committed exactly once
        # across both incarnations -- zero lost, zero double-committed.
        counts = journal_commit_counts(run_journal)
        assert sorted(counts) == list(range(total))
        assert set(counts.values()) == {1}

        # Zero recomputation: everything committed before the kill
        # was replayed from the journal, and only the remainder ran.
        stats = status["stats"]
        assert stats["cells_resumed"] >= max(committed_at_kill,
                                             len(pre_kill))
        assert stats["cells_resumed"] + stats["cells_computed"] == total

        code, results = api(second.base_url, "GET",
                            f"/jobs/{job_id}/results")
        assert code == 200 and results["count"] == total
        served = results["cells"]
    finally:
        second.kill()
        second.wait(timeout=30)

    # Byte-identity: the interrupted, resumed, HTTP-served results are
    # the direct in-process run's results, bit for bit.
    import base64

    direct = ScenarioRunner().run(parse_spec(grid))
    assert [pickle.dumps(r, protocol=4) for r in direct.results] \
        == [base64.b64decode(cell) for cell in served]


def test_restart_after_clean_completion_serves_results_from_journal(
        tmp_path):
    """A done job outlives its server: the restarted process must
    rematerialise results from the run journal with zero recompute."""
    root = tmp_path / "state"
    grid = {
        "policies": {"D30": {"type": "dual", "capacity_mah": 30.0}},
        "traces": {"V": {"workload": "video", "seed": 1,
                         "duration_s": 60.0}},
        "max_duration_s": 600.0,
    }
    first = _spawn(root)
    try:
        code, ack = api(first.base_url, "POST", "/jobs", body=grid)
        job_id = ack["job_id"]
        wait_for_job(first.base_url, job_id)
        code, before = api(first.base_url, "GET",
                           f"/jobs/{job_id}/results")
        assert code == 200
    finally:
        first.kill()
        first.wait(timeout=30)

    second = _spawn(root)
    try:
        code, status = api(second.base_url, "GET", f"/jobs/{job_id}")
        assert code == 200 and status["state"] == "done"
        code, after = api(second.base_url, "GET",
                          f"/jobs/{job_id}/results")
        assert code == 200
        assert after["cells"] == before["cells"]
        # Rematerialisation replayed commits; nothing ran again.
        counts = journal_commit_counts(root / "jobs" / job_id
                                       / "run.journal")
        assert set(counts.values()) == {1}
    finally:
        second.kill()
        second.wait(timeout=30)
