"""The CAPMAN sweep service: stdlib HTTP over the durable job queue.

``ThreadingHTTPServer`` + a hand-rolled router -- one OS thread per
connection, no runtime dependencies, consistent with the raw-TCP
distributed backend next door.  The surface:

========  ==========================  =======================================
method    path                        purpose
========  ==========================  =======================================
POST      /jobs                       submit a JSON grid; content-hash job ID
GET       /jobs/{id}                  status + live per-cell progress
GET       /jobs/{id}/results          per-cell pickled outcomes (base64)
GET       /jobs/{id}/events           NDJSON progress stream until terminal
GET       /metrics                    service registry + span aggregates
GET       /healthz                    liveness (unauthenticated)
========  ==========================  =======================================

Authentication reuses the distributed protocol's shared secret: when
``CAPMAN_DIST_SECRET`` is set, every route except ``/healthz``
requires ``Authorization: Bearer <secret>`` (constant-time compare).
Every rejection -- bad token, malformed JSON, oversized body, unknown
route -- is a structured ``{"error": {...}}`` body; handler threads
are per-connection, so no request can wedge the listener.

The service owns its *own* :class:`~repro.obs.registry.MetricsRegistry`
(guarded by a lock; the repo registry is single-writer by design)
rather than the process-global obs session, preserving the repo's
obs-off invisibility contract for the sweeps it runs.
"""

from __future__ import annotations

import base64
import hmac
import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from ..obs.export import registry_snapshot
from ..obs.registry import MetricsRegistry
from ..sim.distributed import SECRET_ENV, protocol_secret
from .jobs import DONE, FAILED, JobStore
from .schemas import ApiError, parse_spec

__all__ = ["CapmanService", "ServiceMetrics", "DEFAULT_MAX_BODY"]

#: Request bodies above this are rejected with 413 before parsing.
DEFAULT_MAX_BODY = 8 << 20

_JOB_PATH = re.compile(r"^/jobs/([0-9a-f]{32})(?:/(results|events))?$")


class ServiceMetrics:
    """Lock-guarded metrics owned by one service instance.

    Wraps a :class:`MetricsRegistry` (whose instruments are not
    themselves synchronised) plus a fold of per-job tracer windows, so
    handler and job-runner threads can all record safely and
    ``/metrics`` serves one consistent snapshot.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self._lock = threading.Lock()
        self._spans: Dict[str, Dict[str, float]] = {}

    def inc(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.registry.counter(name).inc(value)

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            self.registry.histogram(name).observe(value)

    def merge_spans(self, window: Dict[str, Dict[str, float]]) -> None:
        with self._lock:
            for name, agg in window.items():
                mine = self._spans.get(name)
                if mine is None:
                    self._spans[name] = dict(agg)
                else:
                    mine["count"] += agg["count"]
                    mine["total_s"] += agg["total_s"]
                    mine["max_s"] = max(mine["max_s"], agg["max_s"])

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return registry_snapshot(self.registry, spans=self._spans)


class _Handler(BaseHTTPRequestHandler):
    """Router + structured-error envelope for one connection."""

    server_version = "capman-sweep-service"
    protocol_version = "HTTP/1.1"
    # Headers and body go out in separate writes; with Nagle on, a
    # kept-alive connection stalls each response on the peer's
    # delayed ACK (~40 ms).
    disable_nagle_algorithm = True

    # Quiet: request logging is metrics, not stderr noise.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    @property
    def service(self) -> "CapmanService":
        return self.server.service  # type: ignore[attr-defined]

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    # ------------------------------------------------------------------
    def _dispatch(self, method: str) -> None:
        service = self.service
        started = time.monotonic()
        route = "other"
        status = 500
        try:
            route, status = self._route(method)
        except ApiError as err:
            status = err.status
            self._send_json(err.status, err.body())
        except BrokenPipeError:
            # Client went away mid-stream; nothing left to answer.
            status = 499
        except Exception as exc:
            try:
                self._send_json(500, {"error": {
                    "code": "internal",
                    "message": f"{type(exc).__name__}: {exc}"}})
            except BrokenPipeError:
                pass
        finally:
            service.metrics.inc(f"http.{route}.requests")
            service.metrics.inc(f"http.{route}.status.{status}")
            service.metrics.observe(f"http.{route}.latency_s",
                                    time.monotonic() - started)

    def _route(self, method: str) -> Tuple[str, int]:
        """Returns ``(route key, status)``; raises ApiError to reject."""
        path = self.path.split("?", 1)[0]
        if path == "/healthz":
            if method != "GET":
                raise ApiError(405, "method_not_allowed",
                               f"{method} not allowed on {path}")
            return "healthz", self._send_json(200, {"ok": True})
        self._authenticate()
        if path == "/metrics":
            if method != "GET":
                raise ApiError(405, "method_not_allowed",
                               f"{method} not allowed on {path}")
            return "metrics", self._send_json(200, self._metrics_body())
        if path == "/jobs":
            if method != "POST":
                raise ApiError(405, "method_not_allowed",
                               f"{method} not allowed on {path}")
            return "jobs.submit", self._submit()
        match = _JOB_PATH.match(path)
        if match is not None:
            if method != "GET":
                raise ApiError(405, "method_not_allowed",
                               f"{method} not allowed on {path}")
            job_id, sub = match.group(1), match.group(2)
            if sub == "results":
                return "jobs.results", self._results(job_id)
            if sub == "events":
                return "jobs.events", self._events(job_id)
            return "jobs.status", self._send_json(
                200, self.service.store.status(job_id))
        raise ApiError(404, "not_found", f"no route for {path}")

    # ------------------------------------------------------------------
    def _authenticate(self) -> None:
        secret = self.service.secret
        if secret is None:
            return
        header = self.headers.get("Authorization", "")
        scheme, _, token = header.partition(" ")
        if scheme.lower() != "bearer" or not hmac.compare_digest(
                token.strip().encode(), secret):
            raise ApiError(401, "unauthorized",
                           "missing or invalid bearer token")

    def _read_body(self) -> bytes:
        length_header = self.headers.get("Content-Length")
        if length_header is None:
            raise ApiError(411, "length_required",
                           "Content-Length is required")
        try:
            length = int(length_header)
        except ValueError:
            raise ApiError(400, "invalid_length",
                           f"bad Content-Length {length_header!r}") from None
        if length < 0:
            raise ApiError(400, "invalid_length", "negative Content-Length")
        if length > self.service.max_body_bytes:
            # Answer without draining: the connection closes, the
            # oversized body is never buffered server-side.
            self.close_connection = True
            raise ApiError(413, "body_too_large",
                           f"body of {length} bytes exceeds the "
                           f"{self.service.max_body_bytes}-byte limit")
        return self.rfile.read(length)

    def _submit(self) -> int:
        body = self._read_body()
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ApiError(400, "invalid_json",
                           f"request body is not JSON: {exc}") from exc
        spec = parse_spec(payload)
        job, created = self.service.store.submit(spec)
        return self._send_json(201 if created else 200, {
            "job_id": job.job_id,
            "created": created,
            "state": job.state,
            "cells": job.n_cells,
        })

    def _results(self, job_id: str) -> int:
        blobs = self.service.store.result_blobs(job_id)
        return self._send_json(200, {
            "job_id": job_id,
            "count": len(blobs),
            "cells": [base64.b64encode(blob).decode("ascii")
                      for blob in blobs],
        })

    def _events(self, job_id: str) -> int:
        """NDJSON progress stream: one status snapshot per line until
        the job reaches a terminal state (close-delimited body)."""
        store = self.service.store
        store.get(job_id)  # 404 before any bytes are committed
        self.close_connection = True
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Connection", "close")
        self.end_headers()
        while True:
            snapshot = store.status(job_id)
            self.wfile.write(json.dumps(snapshot, sort_keys=True)
                             .encode("utf-8") + b"\n")
            self.wfile.flush()
            if snapshot["state"] in (DONE, FAILED):
                return 200
            time.sleep(self.service.events_poll_s)

    def _metrics_body(self) -> Dict[str, Any]:
        body = self.service.metrics.snapshot()
        body["jobs"] = self.service.store.counts()
        return body

    def _send_json(self, status: int, body: Dict[str, Any]) -> int:
        payload = json.dumps(body, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)
        return status


class CapmanService:
    """The assembled service: HTTP server + job store + metrics.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`address`).  ``serve_forever`` blocks; ``start`` runs the
    accept loop on a daemon thread for in-process embedding (tests).
    """

    def __init__(
        self,
        root: Union[str, Path],
        host: str = "127.0.0.1",
        port: int = 0,
        cell_workers: int = 1,
        job_runners: int = 2,
        max_body_bytes: int = DEFAULT_MAX_BODY,
        events_poll_s: float = 0.05,
    ) -> None:
        self.root = Path(root)
        self.metrics = ServiceMetrics()
        self.secret = protocol_secret()
        self.max_body_bytes = max_body_bytes
        self.events_poll_s = events_poll_s
        self.store = JobStore(self.root, cell_workers=cell_workers,
                              job_runners=job_runners,
                              metrics=self.metrics)
        self.httpd = ThreadingHTTPServer((host, port), _Handler)
        self.httpd.daemon_threads = True
        self.httpd.service = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port)."""
        host, port = self.httpd.server_address[:2]
        return str(host), int(port)

    def start(self) -> "CapmanService":
        """Serve on a background daemon thread; returns self."""
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="capman-service", daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self.httpd.serve_forever(poll_interval=0.05)

    def close(self) -> None:
        """Graceful shutdown (the crash path needs none of this)."""
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.store.close()


#: Re-exported so callers can gate auth the same way the server does.
AUTH_ENV = SECRET_ENV
