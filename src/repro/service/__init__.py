"""CAPMAN-as-a-service: the HTTP boundary over the sweep engine.

Clients POST device specs, workload traces and scenario grids as
JSON; the service answers with content-hash-derived job IDs, executes
each grid on the existing sweep engine behind a durable (WAL-backed)
job queue, and serves status, per-cell progress, NDJSON event streams
and byte-identical results back over plain HTTP.  See
:mod:`repro.service.app` for the route table and
:mod:`repro.service.jobs` for the durability model.

Run one with ``python -m repro.service --root /var/lib/capman``.
"""

from .app import AUTH_ENV, CapmanService, ServiceMetrics
from .jobs import Job, JobStore, job_id_for
from .schemas import (ApiError, MAX_CELL_STEPS, MAX_GRID_CELLS,
                      POLICY_TYPES, WORKLOAD_TYPES, parse_spec)

__all__ = [
    "ApiError",
    "AUTH_ENV",
    "CapmanService",
    "Job",
    "JobStore",
    "MAX_CELL_STEPS",
    "MAX_GRID_CELLS",
    "POLICY_TYPES",
    "ServiceMetrics",
    "WORKLOAD_TYPES",
    "job_id_for",
    "parse_spec",
]
