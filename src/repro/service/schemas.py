"""JSON wire schemas for the sweep service.

The service boundary accepts plain JSON -- device specs by profile
name, workload traces by generator recipe or inline rows, scenario
grids as the same axes :class:`~repro.sim.sweep.SweepSpec` exposes --
and turns it into a validated spec.  Every rejection is an
:class:`ApiError` carrying an HTTP status and a stable machine code,
so clients get structured errors (``{"error": {"code": ...}}``)
instead of tracebacks, and a malformed request can never wedge the
server.

The registries are deliberately closed-world: a client can only name
policies, workloads and profiles this module lists.  Arbitrary
pickled payloads never cross the HTTP boundary -- the spec is built
server-side from validated scalars, which is what makes the
content-hash job identity (and the shared result cache under it)
safe to share across tenants.

A cell's work is fixed by its inputs, so the service bounds it by
checking them: every duration, step, ambient and trace argument must
be finite, every duration and step size positive, no recorded trace
segment shorter than :data:`MIN_SEGMENT_S`, and no cell may take more
than :data:`MAX_CELL_STEPS` control steps.  Nothing bounds a cell
while it runs.
"""

from __future__ import annotations

import inspect
import math
import sys
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..capman.baselines import (DualPolicy, HeuristicPolicy, PracticePolicy,
                                SchedulingPolicy)
from ..capman.controller import CapmanPolicy
from ..device.phone import DemandSlice
from ..device.profiles import PHONES
from ..device.syscalls import default_vocabulary
from ..sim.daily import run_days
from ..sim.sweep import SweepSpec
from ..testing import SlowDualPolicy
from ..workload.base import Segment
from ..workload.generators import (EtaStaticWorkload, GeekbenchWorkload,
                                   IdleWorkload, PCMarkWorkload,
                                   SkewedBurstWorkload, VideoWorkload)
from ..workload.traces import Trace, record_trace

__all__ = [
    "ApiError",
    "POLICY_TYPES",
    "WORKLOAD_TYPES",
    "MAX_CELL_STEPS",
    "MAX_GRID_CELLS",
    "MAX_TRACE_SECONDS",
    "MIN_SEGMENT_S",
    "parse_spec",
]


class ApiError(Exception):
    """A structured request rejection: HTTP status + machine code."""

    def __init__(self, status: int, code: str, message: str,
                 detail: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(message)
        self.status = int(status)
        self.code = code
        self.message = message
        self.detail = detail or {}

    def body(self) -> Dict[str, Any]:
        """The JSON error envelope served to the client."""
        error: Dict[str, Any] = {"code": self.code, "message": self.message}
        if self.detail:
            error["detail"] = self.detail
        return {"error": error}


#: Policies a client may instantiate, by wire name.  Keyword arguments
#: map straight onto the dataclass init fields ("capacity_mah" etc.);
#: "slow_dual" is the wall-time-burning test double the crash drills
#: submit so a SIGKILL lands mid-sweep.
POLICY_TYPES: Dict[str, type] = {
    "practice": PracticePolicy,
    "dual": DualPolicy,
    "heuristic": HeuristicPolicy,
    "capman": CapmanPolicy,
    "slow_dual": SlowDualPolicy,
}

#: Workload generators a client may record traces from, by wire name.
WORKLOAD_TYPES: Dict[str, type] = {
    "geekbench": GeekbenchWorkload,
    "pcmark": PCMarkWorkload,
    "video": VideoWorkload,
    "eta_static": EtaStaticWorkload,
    "idle": IdleWorkload,
    "skewed_burst": SkewedBurstWorkload,
}

#: Hard ceiling on the expanded grid of one job.
MAX_GRID_CELLS = 4096

#: Hard ceiling on the control steps one cell may take: the whole run
#: for a "daily" cell, which steps ``n_days`` discharge cycles.
MAX_CELL_STEPS = 1_000_000

#: Longest ``slow_dual.delay_s`` (wall seconds) a client may ask for.
_MAX_SLOW_DELAY_S = 10.0

#: Days a "daily" cell runs when ``extra`` sets no ``n_days``.
_DEFAULT_N_DAYS = inspect.signature(run_days).parameters["n_days"].default

#: The ``extra`` run arguments a client may set, per sweep kind.
_EXTRA_KEYS = {
    "discharge": ("tec_threshold_c", "brownout_limit"),
    "daily": ("n_days",),
}

#: Hard ceiling on one recorded/inline trace (simulated seconds).
MAX_TRACE_SECONDS = 48.0 * 3600.0

#: Shortest ``segment_s`` a generator recipe may ask for: the shortest
#: segment any other generator emits, so a recorded trace holds at most
#: ``MAX_TRACE_SECONDS / MIN_SEGMENT_S`` segments.
MIN_SEGMENT_S = 0.5

#: Fields an inline trace row must carry (the Trace.save format).
_ROW_FIELDS = ("duration_s", "syscall", "cpu_util", "freq_index",
               "screen_on", "brightness", "wifi_kbps")


def _bad(message: str, code: str = "invalid_spec",
         **detail: Any) -> ApiError:
    return ApiError(400, code, message, detail or None)


def _require_mapping(obj: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(obj, Mapping):
        raise _bad(f"{what} must be a JSON object, got "
                   f"{type(obj).__name__}")
    return obj


def _require_number(obj: Any, what: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise _bad(f"{what} must be a number, got {type(obj).__name__}")
    # json.loads accepts NaN, Infinity and integers too large for a
    # float; no field takes any of them.  NaN fails the comparison.
    if not abs(obj) <= sys.float_info.max:
        raise _bad(f"{what} must be finite, got {obj}")
    return float(obj)


def _require_positive(value: float, what: str) -> None:
    if value <= 0:
        raise _bad(f"{what} must be positive, got {value}")


def _construct(cls: type, kwargs: Dict[str, Any], what: str) -> Any:
    """Instantiate a registry class, folding bad kwargs into ApiError."""
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise _bad(f"bad arguments for {what}: {exc}",
                   arguments=sorted(kwargs)) from exc
    except ValueError as exc:
        raise _bad(f"bad value for {what}: {exc}") from exc


# ----------------------------------------------------------------------
# Axis parsers
# ----------------------------------------------------------------------
def parse_policy(name: str, obj: Any) -> SchedulingPolicy:
    """One ``{"type": ..., <kwargs>}`` policy description."""
    obj = _require_mapping(obj, f"policy {name!r}")
    kind = obj.get("type")
    if kind not in POLICY_TYPES:
        raise _bad(f"unknown policy type {kind!r} for policy {name!r}",
                   code="unknown_policy",
                   known=sorted(POLICY_TYPES))
    kwargs = {k: v for k, v in obj.items() if k != "type"}
    policy = _construct(POLICY_TYPES[kind], kwargs, f"policy {name!r}")
    if isinstance(policy, SlowDualPolicy):
        delay = _require_number(policy.delay_s, f"policy {name!r} delay_s")
        if not 0.0 <= delay <= _MAX_SLOW_DELAY_S:
            raise _bad(f"policy {name!r} delay_s must be in "
                       f"[0, {_MAX_SLOW_DELAY_S:.0f}] s, got {delay}")
    return policy


def _parse_trace_rows(name: str, rows: Any) -> Trace:
    if not isinstance(rows, list) or not rows:
        raise _bad(f"trace {name!r} rows must be a non-empty array")
    vocab = default_vocabulary()
    segments: List[Segment] = []
    total = 0.0
    for i, row in enumerate(rows):
        row = _require_mapping(row, f"trace {name!r} row {i}")
        missing = [f for f in _ROW_FIELDS if f not in row]
        if missing:
            raise _bad(f"trace {name!r} row {i} is missing fields",
                       missing=missing)
        syscall = None
        if row["syscall"] is not None:
            try:
                syscall = vocab.lookup(str(row["syscall"]))
            except KeyError:
                raise _bad(f"trace {name!r} row {i} names unknown "
                           f"syscall {row['syscall']!r}",
                           code="unknown_syscall") from None
        duration = _require_number(row["duration_s"],
                                   f"trace {name!r} row {i} duration_s")
        try:
            segments.append(Segment(
                DemandSlice(
                    cpu_util=_require_number(row["cpu_util"], "cpu_util"),
                    freq_index=int(row["freq_index"]),
                    screen_on=bool(row["screen_on"]),
                    brightness=_require_number(row["brightness"],
                                               "brightness"),
                    wifi_kbps=_require_number(row["wifi_kbps"],
                                              "wifi_kbps"),
                ),
                duration,
                syscall,
            ))
        except (TypeError, ValueError) as exc:
            raise _bad(f"trace {name!r} row {i} is invalid: {exc}") from exc
        total += duration
    if total > MAX_TRACE_SECONDS:
        raise _bad(f"trace {name!r} spans {total:.0f} simulated seconds "
                   f"(limit {MAX_TRACE_SECONDS:.0f})",
                   code="trace_too_long")
    return Trace(segments, name=str(name))


def parse_trace(name: str, obj: Any) -> Trace:
    """One trace description: a workload recipe or inline rows.

    ``{"workload": "video", "seed": 5, "duration_s": 120}`` records
    the named generator deterministically server-side;
    ``{"rows": [...]}`` carries explicit Trace.save()-format rows.
    """
    obj = _require_mapping(obj, f"trace {name!r}")
    if "rows" in obj:
        return _parse_trace_rows(name, obj["rows"])
    kind = obj.get("workload")
    if kind not in WORKLOAD_TYPES:
        raise _bad(f"unknown workload {kind!r} for trace {name!r}",
                   code="unknown_workload",
                   known=sorted(WORKLOAD_TYPES))
    duration = _require_number(obj.get("duration_s"),
                               f"trace {name!r} duration_s")
    if not 0.0 < duration <= MAX_TRACE_SECONDS:
        raise _bad(f"trace {name!r} duration_s must be in "
                   f"(0, {MAX_TRACE_SECONDS:.0f}]",
                   code="trace_too_long" if duration > 0 else "invalid_spec")
    kwargs = {k: v for k, v in obj.items()
              if k not in ("workload", "duration_s")}
    for key, value in kwargs.items():
        _require_number(value, f"trace {name!r} {key}")
    if kwargs.get("segment_s", MIN_SEGMENT_S) < MIN_SEGMENT_S:
        raise _bad(f"trace {name!r} segment_s must be at least "
                   f"{MIN_SEGMENT_S} s, got {kwargs['segment_s']}")
    workload = _construct(WORKLOAD_TYPES[kind], kwargs, f"trace {name!r}")
    trace = record_trace(workload, duration)
    return Trace(trace.segments, name=str(name))


def _parse_axis(payload: Mapping[str, Any], key: str,
                parser: Callable[[str, Any], Any]) -> Dict[str, Any]:
    axis = payload.get(key)
    if not isinstance(axis, Mapping) or not axis:
        raise _bad(f"{key} must be a non-empty JSON object")
    out: Dict[str, Any] = {}
    for name, obj in axis.items():
        out[str(name)] = parser(str(name), obj)
    return out


def _parse_profiles(payload: Mapping[str, Any]) -> Dict[str, Any]:
    names = payload.get("profiles", ["Nexus"])
    if isinstance(names, str):
        names = [names]
    if not isinstance(names, list) or not names:
        raise _bad("profiles must be a non-empty array of profile names")
    out: Dict[str, Any] = {}
    for name in names:
        if name not in PHONES:
            raise ApiError(400, "unknown_profile",
                           f"unknown device profile {name!r}",
                           {"known": sorted(PHONES)})
        out[str(name)] = PHONES[name]
    return out


def _parse_floats(payload: Mapping[str, Any], key: str,
                  default: Tuple[float, ...]) -> Tuple[float, ...]:
    values = payload.get(key)
    if values is None:
        return default
    if isinstance(values, (int, float)) and not isinstance(values, bool):
        values = [values]
    if not isinstance(values, list) or not values:
        raise _bad(f"{key} must be a number or non-empty array of numbers")
    return tuple(_require_number(v, f"{key}[{i}]")
                 for i, v in enumerate(values))


def _parse_extra(payload: Mapping[str, Any],
                 kind: str) -> Tuple[Dict[str, Any], int]:
    """The validated ``extra`` arguments and the days a cell runs."""
    extra = dict(_require_mapping(payload.get("extra", {}), "extra"))
    unknown = sorted(set(extra) - set(_EXTRA_KEYS[kind]))
    if unknown:
        raise _bad(f"unknown extra arguments for a {kind} sweep",
                   unknown=unknown, known=list(_EXTRA_KEYS[kind]))
    if kind != "daily":
        return extra, 1
    n_days = extra.get("n_days", _DEFAULT_N_DAYS)
    if isinstance(n_days, bool) or not isinstance(n_days, int) or n_days < 1:
        raise _bad("extra n_days must be a positive integer")
    return extra, n_days


def _cell_step_bound(max_duration: float, control_dt: float,
                     trace: Trace) -> int:
    """Most control steps one discharge cycle of ``trace`` can take.

    ``ceil(max_duration / control_dt)`` full steps, plus at most one
    short tail step for each segment the looped trace starts inside
    the window.
    """
    def ceil(quotient: float) -> int:
        # min() keeps an overflowed (infinite) quotient out of math.ceil.
        return math.ceil(min(quotient, MAX_CELL_STEPS + 1))

    loops = ceil(max_duration / trace.duration_s)
    return ceil(max_duration / control_dt) + loops * len(trace)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def parse_spec(payload: Any) -> SweepSpec:
    """A validated :class:`SweepSpec` from one submitted JSON body."""
    payload = _require_mapping(payload, "request body")
    kind = payload.get("kind", "discharge")
    if kind not in ("discharge", "daily"):
        raise _bad(f"unknown sweep kind {kind!r}")
    policies = _parse_axis(payload, "policies", parse_policy)
    traces = _parse_axis(payload, "traces", parse_trace)
    profiles = _parse_profiles(payload)
    control_dts = _parse_floats(payload, "control_dts", (2.0,))
    ambients = _parse_floats(payload, "ambients_c", (25.0,))
    max_duration = _require_number(
        payload.get("max_duration_s", 3.0 * 3600.0), "max_duration_s")
    _require_positive(max_duration, "max_duration_s")
    _require_positive(min(control_dts), "control_dts")
    record_every = payload.get("record_every", 1)
    if isinstance(record_every, bool) or not isinstance(record_every, int) \
            or record_every < 1:
        raise _bad("record_every must be a positive integer")
    extra, n_days = _parse_extra(payload, kind)
    n_cells = (len(policies) * len(traces) * len(profiles)
               * len(control_dts) * len(ambients))
    if n_cells > MAX_GRID_CELLS:
        raise _bad(f"grid expands to {n_cells} cells "
                   f"(limit {MAX_GRID_CELLS})", code="grid_too_large")
    steps = n_days * max(
        _cell_step_bound(max_duration, min(control_dts), trace)
        for trace in traces.values())
    if steps > MAX_CELL_STEPS:
        raise _bad(f"a cell may take more than {MAX_CELL_STEPS} control "
                   f"steps", max_cell_steps=MAX_CELL_STEPS)
    try:
        return SweepSpec(
            policies=policies, traces=traces, profiles=profiles,
            control_dts=control_dts, ambients_c=ambients, kind=str(kind),
            max_duration_s=max_duration, record_every=record_every,
            extra=extra)
    except ValueError as exc:
        raise _bad(str(exc)) from exc
