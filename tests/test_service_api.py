"""API contract and malformed-input tests for the sweep service.

Every bad request must come back as a structured ``{"error": {...}}``
envelope with a stable machine code -- and, crucially, must leave the
server answering the next request.  The concurrent fuzz test (seeded)
hammers the listener with garbage byte streams, truncated bodies and
junk routes from several threads, then proves the service still does
real work.
"""

import http.client
import json
import random
import socket
import threading

import pytest

from repro.service import CapmanService
from repro.service.schemas import MAX_GRID_CELLS

from service_client import api, small_grid, wait_for_job

SECRET = "sweep-service-test-secret"


@pytest.fixture()
def service(tmp_path, monkeypatch):
    monkeypatch.setenv("CAPMAN_DIST_SECRET", SECRET)
    svc = CapmanService(tmp_path / "state", job_runners=1,
                        max_body_bytes=64 << 10).start()
    yield svc
    svc.close()


@pytest.fixture()
def base(service):
    host, port = service.address
    return f"http://{host}:{port}"


class TestAuth:
    def test_missing_token_is_401(self, base):
        code, body = api(base, "GET", "/metrics")
        assert code == 401
        assert body["error"]["code"] == "unauthorized"

    def test_wrong_token_is_401(self, base):
        code, body = api(base, "POST", "/jobs", body=small_grid(),
                         token="not-the-secret")
        assert code == 401
        assert body["error"]["code"] == "unauthorized"

    def test_healthz_needs_no_token(self, base):
        assert api(base, "GET", "/healthz") == (200, {"ok": True})

    def test_right_token_is_accepted(self, base):
        code, body = api(base, "GET", "/metrics", token=SECRET)
        assert code == 200 and "counters" in body


class TestContract:
    def test_invalid_json_is_400(self, base):
        code, body = api(base, "POST", "/jobs",
                         raw=b"{not json", token=SECRET)
        assert code == 400
        assert body["error"]["code"] == "invalid_json"

    def test_unknown_device_profile_is_400(self, base):
        grid = small_grid()
        grid["profiles"] = ["Pixel9"]
        code, body = api(base, "POST", "/jobs", body=grid, token=SECRET)
        assert code == 400
        assert body["error"]["code"] == "unknown_profile"
        assert "Nexus" in body["error"]["detail"]["known"]

    def test_unknown_policy_type_is_400(self, base):
        grid = small_grid()
        grid["policies"]["D30"] = {"type": "quantum"}
        code, body = api(base, "POST", "/jobs", body=grid, token=SECRET)
        assert code == 400
        assert body["error"]["code"] == "unknown_policy"

    def test_bad_policy_arguments_are_400(self, base):
        grid = small_grid()
        grid["policies"]["D30"] = {"type": "dual", "warp_factor": 9}
        code, body = api(base, "POST", "/jobs", body=grid, token=SECRET)
        assert code == 400
        assert body["error"]["code"] == "invalid_spec"

    def test_unknown_workload_is_400(self, base):
        grid = small_grid()
        grid["traces"]["V"] = {"workload": "crysis", "duration_s": 60}
        code, body = api(base, "POST", "/jobs", body=grid, token=SECRET)
        assert code == 400
        assert body["error"]["code"] == "unknown_workload"

    def test_oversized_body_is_413(self, base):
        blob = b'{"padding": "' + b"x" * (65 << 10) + b'"}'
        code, body = api(base, "POST", "/jobs", raw=blob, token=SECRET)
        assert code == 413
        assert body["error"]["code"] == "body_too_large"

    def test_grid_over_the_cell_ceiling_is_400(self, base):
        grid = small_grid(capacities=(30.0,))
        grid["control_dts"] = [float(i + 1) for i in range(MAX_GRID_CELLS
                                                           + 1)]
        code, body = api(base, "POST", "/jobs", body=grid, token=SECRET)
        assert code == 400
        assert body["error"]["code"] == "grid_too_large"

    @pytest.mark.parametrize("patch", [
        {"control_dts": [1e-9]},
        {"control_dts": [0.0]},
        {"control_dts": [float("nan")]},
        {"max_duration_s": float("nan")},
        {"max_duration_s": float("inf")},
        {"max_duration_s": 1e15},
        {"max_duration_s": -5.0},
        {"ambients_c": [float("inf")]},
        {"policies": {"S": {"type": "slow_dual", "delay_s": 1e9}}},
        {"policies": {"S": {"type": "slow_dual", "delay_s": -1.0}}},
        {"extra": {"bogus": 1}},
        {"kind": "daily", "extra": {"tec_threshold_c": 40.0}},
        {"kind": "daily", "extra": {"n_days": 0}},
        {"kind": "daily", "extra": {"n_days": 10_000}},
        {"kind": "daily", "max_duration_s": 86_400.0},
        *({"traces": {"T": {"workload": workload, "seed": 1,
                            "duration_s": 60.0, **kwargs}}}
          for workload, kwargs in (
              ("idle", {"segment_s": 1e-3}),
              ("idle", {"segment_s": float("nan")}),
              ("skewed_burst", {"mean_gap_s": float("nan")}))),
        *({"traces": {"T": {"rows": [{
            "duration_s": duration, "syscall": None, "cpu_util": 40.0,
            "freq_index": 1, "screen_on": True, "brightness": 0.5,
            "wifi_kbps": 0.0}]}}} for duration in (1e-10, float("nan"))),
    ], ids=lambda patch: json.dumps(patch))
    def test_unbounded_cell_is_400(self, base, patch):
        """A body whose cell has no finite, bounded amount of work is
        refused before it is queued."""
        grid = small_grid(capacities=(30.0,))
        grid.update(patch)
        code, body = api(base, "POST", "/jobs", body=grid, token=SECRET)
        assert code == 400
        assert body["error"]["code"] == "invalid_spec"

    def test_unknown_route_is_404(self, base):
        code, body = api(base, "GET", "/nope", token=SECRET)
        assert code == 404
        assert body["error"]["code"] == "not_found"

    def test_wrong_method_is_405(self, base):
        code, body = api(base, "GET", "/jobs", token=SECRET)
        assert code == 405
        assert body["error"]["code"] == "method_not_allowed"

    def test_unknown_job_is_404(self, base):
        code, body = api(base, "GET", "/jobs/" + "0" * 32, token=SECRET)
        assert code == 404
        assert body["error"]["code"] == "unknown_job"

    def test_inline_trace_rows_round_trip(self, base):
        grid = {
            "policies": {"D30": {"type": "dual", "capacity_mah": 30.0}},
            "traces": {"inline": {"rows": [
                {"duration_s": 30.0, "syscall": None, "cpu_util": 40.0,
                 "freq_index": 1, "screen_on": True, "brightness": 0.5,
                 "wifi_kbps": 0.0},
                {"duration_s": 30.0, "syscall": None, "cpu_util": 80.0,
                 "freq_index": 2, "screen_on": True, "brightness": 0.5,
                 "wifi_kbps": 100.0},
            ]}},
            "max_duration_s": 600.0,
        }
        code, ack = api(base, "POST", "/jobs", body=grid, token=SECRET)
        assert code == 201, ack
        status = wait_for_job(base, ack["job_id"], token=SECRET)
        assert status["state"] == "done"

    def test_inline_trace_missing_fields_is_400(self, base):
        grid = small_grid()
        grid["traces"]["V"] = {"rows": [{"duration_s": 10.0}]}
        code, body = api(base, "POST", "/jobs", body=grid, token=SECRET)
        assert code == 400
        assert "missing" in body["error"]["detail"]


class TestConcurrentFuzz:
    """Seeded multi-client garbage cannot wedge the server."""

    def _hammer(self, host, port, seed, failures):
        rng = random.Random(seed)
        paths = ["/jobs", "/jobs/zzz", "/metrics", "/", "/jobs/" + "f" * 32,
                 "/jobs/%s/events" % ("0" * 32), "/healthz//", "//jobs"]
        try:
            for _ in range(25):
                mode = rng.randrange(3)
                try:
                    if mode == 0:
                        # Raw garbage bytes straight at the listener.
                        with socket.create_connection((host, port),
                                                      timeout=5) as sock:
                            sock.sendall(bytes(rng.randrange(256)
                                               for _ in range(
                                                   rng.randrange(1, 256))))
                    elif mode == 1:
                        # A request that lies about its body length.
                        with socket.create_connection((host, port),
                                                      timeout=5) as sock:
                            sock.sendall(
                                b"POST /jobs HTTP/1.1\r\n"
                                b"Host: x\r\nContent-Length: 9999\r\n"
                                b"\r\ntruncated")
                    else:
                        # Junk routes/methods/bodies over real HTTP.
                        conn = http.client.HTTPConnection(host, port,
                                                          timeout=5)
                        conn.request(
                            rng.choice(["GET", "POST"]),
                            rng.choice(paths),
                            body=bytes(rng.randrange(256) for _ in
                                       range(rng.randrange(64))),
                            headers={"Authorization":
                                     "Bearer " + SECRET})
                        conn.getresponse().read()
                        conn.close()
                except (OSError, http.client.HTTPException):
                    # Connection-level rejection is a fine outcome for
                    # garbage; a wedged server is caught below.
                    pass
        except Exception as exc:  # pragma: no cover - diagnostics only
            failures.append(exc)

    def test_seeded_concurrent_garbage_then_real_work(self, service, base):
        host, port = service.address
        failures = []
        threads = [
            threading.Thread(target=self._hammer,
                             args=(host, port, seed, failures))
            for seed in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert not failures

        # The server survived: structured answers and a real sweep.
        assert api(base, "GET", "/healthz") == (200, {"ok": True})
        code, body = api(base, "POST", "/jobs", raw=b"\xff\xfe",
                         token=SECRET)
        assert code == 400 and body["error"]["code"] == "invalid_json"
        code, ack = api(base, "POST", "/jobs",
                        body=small_grid(capacities=(45.0,)),
                        token=SECRET)
        assert code == 201
        status = wait_for_job(base, ack["job_id"], token=SECRET)
        assert status["state"] == "done"
