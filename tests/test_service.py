"""End-to-end tests of the sweep service (tentpole of the service PR).

The service boots *in-process* on an ephemeral port -- handler and
job-runner code runs under coverage -- and every assertion is against
the public HTTP surface:

* a submitted grid's results are byte-identical to running the same
  spec directly through :class:`ScenarioRunner`;
* resubmitting the identical grid returns the same content-hash job
  ID without recomputing anything;
* an overlapping-but-different grid dedupes cell-wise through the
  shared result cache;
* progress/events/metrics expose the job as it moves through the
  lifecycle.
"""

import base64
import http.client
import json
import os
import pickle
import statistics
import threading
import time

import pytest

from repro.service import CapmanService, job_id_for, parse_spec
from repro.service.jobs import DONE, FAILED, JobStore
from repro.sim import sweep as sweep_module
from repro.sim.sweep import ScenarioRunner

from service_client import api, small_grid, wait_for_job


@pytest.fixture()
def service(tmp_path, monkeypatch):
    monkeypatch.delenv("CAPMAN_DIST_SECRET", raising=False)
    monkeypatch.delenv("CAPMAN_DIST_WORKERS", raising=False)
    svc = CapmanService(tmp_path / "state", cell_workers=1,
                        job_runners=1).start()
    yield svc
    svc.close()


@pytest.fixture()
def base(service):
    host, port = service.address
    return f"http://{host}:{port}"


class TestEndToEnd:
    def test_submitted_job_matches_direct_runner_byte_for_byte(self, base):
        grid = small_grid()
        code, ack = api(base, "POST", "/jobs", body=grid)
        assert code == 201 and ack["created"] and ack["cells"] == 2
        status = wait_for_job(base, ack["job_id"])
        assert status["state"] == "done"
        assert status["progress"]["finished"]
        assert status["progress"]["done"] == 2

        code, results = api(base, "GET", f"/jobs/{ack['job_id']}/results")
        assert code == 200 and results["count"] == 2
        served = [base64.b64decode(cell) for cell in results["cells"]]

        direct = ScenarioRunner().run(parse_spec(grid))
        assert [pickle.dumps(r, protocol=4) for r in direct.results] \
            == served

    def test_job_id_is_content_hash_of_the_grid(self, base):
        grid = small_grid()
        code, ack = api(base, "POST", "/jobs", body=grid)
        assert code == 201
        assert ack["job_id"] == job_id_for(parse_spec(grid))

    def test_duplicate_submission_is_a_pure_dedupe(self, base):
        grid = small_grid(capacities=(35.0,))
        code, first = api(base, "POST", "/jobs", body=grid)
        assert code == 201 and first["created"]
        done = wait_for_job(base, first["job_id"])
        computed = done["stats"]["cells_computed"]

        code, again = api(base, "POST", "/jobs", body=grid)
        assert code == 200
        assert not again["created"]
        assert again["job_id"] == first["job_id"]
        # Zero recomputation: the job record (and its stats) are the
        # original's, and the dedupe is visible on /metrics.
        code, status = api(base, "GET", f"/jobs/{first['job_id']}")
        assert status["stats"]["cells_computed"] == computed
        code, metrics = api(base, "GET", "/metrics")
        assert metrics["counters"]["jobs.deduped"] == 1.0

    def test_overlapping_grid_hits_the_shared_cache(self, base):
        code, first = api(base, "POST", "/jobs",
                          body=small_grid(capacities=(30.0, 40.0)))
        wait_for_job(base, first["job_id"])

        # Two of these three cells were computed by the first job.
        code, second = api(base, "POST", "/jobs",
                           body=small_grid(capacities=(30.0, 40.0, 50.0)))
        assert code == 201 and second["job_id"] != first["job_id"]
        status = wait_for_job(base, second["job_id"])
        assert status["state"] == "done"
        assert status["stats"]["cache_hits"] == 2
        assert status["stats"]["cells_computed"] == 1

    def test_events_stream_is_ndjson_until_terminal(self, service, base):
        code, ack = api(base, "POST", "/jobs", body=small_grid())
        host, port = service.address
        conn = http.client.HTTPConnection(host, port, timeout=120)
        conn.request("GET", f"/jobs/{ack['job_id']}/events")
        resp = conn.getresponse()
        assert resp.status == 200
        assert resp.headers["Content-Type"] == "application/x-ndjson"
        lines = [json.loads(line)
                 for line in resp.read().decode().strip().splitlines()]
        conn.close()
        assert lines, "stream must carry at least one snapshot"
        assert lines[-1]["state"] == "done"
        for snapshot in lines:
            assert snapshot["job_id"] == ack["job_id"]
            assert snapshot["state"] in ("queued", "running", "done")

    def test_metrics_expose_requests_jobs_and_spans(self, base):
        code, ack = api(base, "POST", "/jobs", body=small_grid())
        wait_for_job(base, ack["job_id"])
        code, metrics = api(base, "GET", "/metrics")
        assert code == 200
        counters = metrics["counters"]
        assert counters["http.jobs.submit.requests"] >= 1.0
        assert counters["http.jobs.submit.status.201"] >= 1.0
        assert counters["jobs.submitted"] == 1.0
        assert counters["jobs.completed"] == 1.0
        assert metrics["histograms"]["http.jobs.submit.latency_s"]["count"] \
            >= 1
        assert metrics["histograms"]["job.queue_wait_s"]["count"] == 1
        assert metrics["histograms"]["job.exec_s"]["count"] == 1
        assert metrics["spans"]["job.exec"]["count"] == 1
        assert metrics["spans"]["job.queue_wait"]["count"] == 1
        assert metrics["jobs"]["done"] == 1

    def test_results_before_completion_is_a_structured_409(self, base,
                                                           service):
        # A job that cannot have finished yet: query a fresh submit
        # immediately.  If the runner already won the race, skip.
        code, ack = api(base, "POST", "/jobs",
                        body=small_grid(capacities=(30.0, 40.0, 50.0,
                                                    60.0)))
        code, body = api(base, "GET", f"/jobs/{ack['job_id']}/results")
        if code == 200:  # pragma: no cover - runner outran the request
            pytest.skip("job finished before the results request landed")
        assert code == 409
        assert body["error"]["code"] == "job_not_done"
        wait_for_job(base, ack["job_id"])

    def test_healthz_is_open_and_truthful(self, base):
        assert api(base, "GET", "/healthz") == (200, {"ok": True})

    def test_kept_alive_connection_answers_without_a_nagle_stall(
            self, service):
        host, port = service.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        rtts = []
        try:
            for _ in range(10):
                started = time.perf_counter()
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                assert resp.status == 200 and json.loads(resp.read())["ok"]
                rtts.append(time.perf_counter() - started)
        finally:
            conn.close()
        assert statistics.median(rtts) < 0.020, rtts


class _RendezvousOs:
    """``os`` for the sweep module, with a rendezvous in ``replace``.

    ``SweepCache.put`` renames its temp file into place while holding
    the cache lock.  Each rename waits (bounded) for a second thread
    to arrive: if the lock excludes threads, nobody arrives and the
    wait times out; if two threads are inside at once they meet and
    the overlap is recorded.
    """

    def __init__(self, timeout_s):
        self._barrier = threading.Barrier(2)
        self._timeout_s = timeout_s
        self._guard = threading.Lock()
        self._inside = 0
        self.overlaps = 0

    def __getattr__(self, name):
        return getattr(os, name)

    def replace(self, src, dst):
        with self._guard:
            self._inside += 1
            self.overlaps += self._inside > 1
        try:
            self._barrier.wait(timeout=self._timeout_s)
        except threading.BrokenBarrierError:
            pass
        with self._guard:
            self._inside -= 1
        return os.replace(src, dst)


class TestConcurrentRunners:
    def test_two_runner_threads_share_one_cache(self, tmp_path,
                                                monkeypatch):
        monkeypatch.delenv("CAPMAN_DIST_WORKERS", raising=False)
        rendezvous = _RendezvousOs(timeout_s=2.0)
        monkeypatch.setattr(sweep_module, "os", rendezvous)
        grids = [small_grid(capacities=(30.0, 40.0)),
                 small_grid(capacities=(50.0, 60.0))]
        store = JobStore(tmp_path / "state", job_runners=2)
        try:
            jobs = [store.submit(parse_spec(grid))[0] for grid in grids]
            deadline = time.monotonic() + 60.0
            while (any(job.state not in (DONE, FAILED) for job in jobs)
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert [job.state for job in jobs] == [DONE, DONE], \
                [job.error for job in jobs]
            assert rendezvous.overlaps == 0
            for job, grid in zip(jobs, grids):
                direct = ScenarioRunner().run(parse_spec(grid))
                assert store.result_blobs(job.job_id) == [
                    pickle.dumps(r, protocol=4) for r in direct.results]
        finally:
            store.close()

