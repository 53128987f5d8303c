"""Harness-side tracing: time each layer from outside, around its public calls.

The benchmark never turns on ``repro.obs``: an observed sweep skips
the fleet peel-off, so it would trace a different program.  Instead
:func:`install` replaces the public callables of each layer (module
functions and class methods, looked up where the callers look them
up) with thin wrappers that keep, per thread, a stack of open calls.

* Every wrapped call adds to its op's ``calls``, ``self_s`` (its
  duration minus the part its wrapped children cover) and ``total_s``.
* Calls at layer boundaries are also kept as spans -- name, start,
  end, parent span, trace id (the job id or the cell label) -- in
  memory.  Per-step calls (``Phone.step``, ``*Pack.draw``, ...) are
  aggregated only, or a sweep would hold millions of spans.
* Each traced process -- the workload client and the service --
  writes ``spans-<pid>.jsonl`` once, from :meth:`Tracer.flush`.

Self times telescope: in every thread, the self times of a top-level
call and of everything under it add up to that call's duration.
:func:`load` re-checks this per process from the written files, so a
wrapper that loses time (an unbalanced stack, a frame left open) shows
up as a reconciliation error instead of a silently wrong ledger.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

# Frame slots (a list per open call keeps the hot path allocation-light).
_NAME, _START, _CHILD, _SPAN, _PARENT, _TRACE = range(6)


class _ThreadState:
    __slots__ = ("tid", "stack", "ops", "counts", "spans", "root_s", "flushed")

    def __init__(self) -> None:
        self.tid = threading.get_ident()
        self.stack: List[list] = []
        #: op -> [calls, self_s, total_s]
        self.ops: Dict[str, List[float]] = {}
        self.counts: Dict[str, int] = {}
        #: (frame, end) of finished recorded calls
        self.spans: List[Tuple[list, float]] = []
        self.root_s = 0.0
        self.flushed = 0


def _trace_of(frame: Optional[list]) -> Optional[str]:
    while frame is not None:
        if frame[_TRACE] is not None:
            return frame[_TRACE]
        frame = frame[_PARENT]
    return None


def _span_parent(frame: list) -> Optional[int]:
    parent = frame[_PARENT]
    while parent is not None and parent[_SPAN] is None:
        parent = parent[_PARENT]
    return None if parent is None else parent[_SPAN]


class Tracer:
    """Per-process call ledger written to ``<out_dir>/spans-<pid>.jsonl``."""

    def __init__(self, out_dir: Path, role: str) -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.role = role
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: List[_ThreadState] = []
        self._ids = itertools.count(1)

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            self._local.st = st
            with self._lock:
                self._threads.append(st)
        return st

    # ------------------------------------------------------------------
    def _enter(self, name: str, record: bool,
               trace: Optional[str]) -> Tuple[_ThreadState, list]:
        st = self._state()
        stack = st.stack
        frame = [name, 0.0, 0.0, next(self._ids) if record else None,
                 stack[-1] if stack else None, trace]
        stack.append(frame)
        frame[_START] = time.perf_counter()
        return st, frame

    def _exit(self, st: _ThreadState, frame: list) -> None:
        end = time.perf_counter()
        st.stack.pop()
        dur = end - frame[_START]
        agg = st.ops.get(frame[_NAME])
        if agg is None:
            agg = st.ops[frame[_NAME]] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += dur - frame[_CHILD]
        agg[2] += dur
        if frame[_SPAN] is not None:
            st.spans.append((frame, end))
        parent = frame[_PARENT]
        if parent is not None:
            parent[_CHILD] += dur
        else:
            st.root_s += dur

    def wrap(self, name: str, fn: Callable, record: bool = True,
             trace_of: Optional[Callable[[tuple], Optional[str]]] = None,
             name_of: Optional[Callable[[tuple], str]] = None,
             on_result: Optional[Callable[[tuple, Any], None]] = None,
             ) -> Callable:
        """``fn`` timed as op ``name`` (or ``name_of(args)``)."""
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st, frame = enter(name_of(args) if name_of else name, record,
                              trace_of(args) if trace_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(st, frame)
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped_by_perf__ = True  # type: ignore[attr-defined]
        return traced

    @contextlib.contextmanager
    def root(self, name: str) -> Iterator[None]:
        """One recorded top-level frame: the harness's timed window."""
        st, frame = self._enter(name, True, None)
        try:
            yield
        finally:
            self._exit(st, frame)

    def tag(self, trace: str) -> None:
        """Give every open call of this thread without a trace id ``trace``."""
        for frame in self._state().stack:
            if frame[_TRACE] is None:
                frame[_TRACE] = trace

    def count(self, name: str, n: int = 1) -> None:
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + n

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Append new spans and the cumulative ledger of this process.

        Call at a quiescent point (no other thread inside a wrapped call).
        """
        with self._lock:
            threads = list(self._threads)
        lines = []
        ops: Dict[str, List[float]] = {}
        counts: Dict[str, int] = {}
        # Thread idents are reused (one handler thread per connection),
        # so top-level time is summed over thread states, not keyed.
        traced_wall = 0.0
        for st in threads:
            new, st.flushed = st.spans[st.flushed:], len(st.spans)
            for frame, end in new:
                lines.append(json.dumps({
                    "kind": "span", "id": frame[_SPAN],
                    "parent": _span_parent(frame), "name": frame[_NAME],
                    "start": frame[_START], "end": end,
                    "trace": _trace_of(frame), "tid": st.tid}))
            for name, (calls, self_s, total_s) in list(st.ops.items()):
                agg = ops.setdefault(name, [0, 0.0, 0.0])
                agg[0] += calls
                agg[1] += self_s
                agg[2] += total_s
            for name, n in list(st.counts.items()):
                counts[name] = counts.get(name, 0) + n
            traced_wall += st.root_s
        lines.append(json.dumps({"kind": "ledger", "pid": self.pid,
                                 "role": self.role, "ops": ops,
                                 "counts": counts,
                                 "traced_wall_s": traced_wall}))
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with path.open("a") as fh:
            fh.write("\n".join(lines) + "\n")


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------
#: Ops aggregated without span records (called once or more per control step).
PER_STEP_OPS = ("sim.discharge.phone_step", "battery.pack_draw",
                "thermal.step", "sim.discharge.metrics_record",
                "sim.discharge.policy_decide", "core.scheduler_decide",
                "capman.observe")


def _http_op(args: tuple) -> str:
    handler = args[0]
    path = handler.path.split("?", 1)[0]
    if handler.command == "POST" and path == "/jobs":
        return "service.http.submit"
    if path.startswith("/jobs/"):
        return ("service.http.results" if path.endswith("/results")
                else "service.http.status")
    return "service.http.other"


def _http_trace(args: tuple) -> Optional[str]:
    parts = args[0].path.split("?", 1)[0].split("/")
    return parts[2] if len(parts) > 2 and parts[1] == "jobs" else None


def _journal_op(args: tuple) -> str:
    rtype = args[1]
    if rtype == "cell_commit":
        return "durability.journal_append.cell_commit"
    if rtype in ("job_submit", "job_done"):
        return "durability.journal_append.job"
    return "durability.journal_append.other"


def _runner_trace(args: tuple) -> Optional[str]:
    journal = args[0].journal
    return journal.parent.name if journal is not None else None


def install(tracer: Tracer) -> List[str]:
    """Wrap every layer's public callables; returns the wrapped op names."""
    import importlib

    mod = importlib.import_module
    app = mod("repro.service.app")
    jobs = mod("repro.service.jobs")
    journal = mod("repro.durability.journal")
    sweep = mod("repro.sim.sweep")
    executors = mod("repro.sim.executors")
    discharge = mod("repro.sim.discharge")
    metrics = mod("repro.sim.metrics")
    phone = mod("repro.device.phone")
    pack = mod("repro.battery.pack")
    rc = mod("repro.thermal.rc_network")
    baselines = mod("repro.capman.baselines")
    controller = mod("repro.capman.controller")
    profiler = mod("repro.capman.profiler")
    online = mod("repro.core.online")

    def cache_hit(args, result):
        tracer.count("sim.sweep.cache_get.hits", result is not None)

    def job_id(args, result):
        tracer.tag(result)

    # (op, [(owner, attribute)], wrap keyword arguments)
    table = [
        ("service.http", [(app._Handler, "do_GET"), (app._Handler, "do_POST")],
         {"name_of": _http_op, "trace_of": _http_trace}),
        ("service.parse_spec", [(app, "parse_spec")], {}),
        ("service.job_id", [(jobs, "job_id_for")], {"on_result": job_id}),
        ("service.submit", [(jobs.JobStore, "submit")], {}),
        ("service.status", [(jobs.JobStore, "status")],
         {"trace_of": lambda a: a[1]}),
        ("service.result_blobs", [(jobs.JobStore, "result_blobs")],
         {"trace_of": lambda a: a[1]}),
        ("durability.journal_append", [(journal.RunJournal, "append")],
         {"name_of": _journal_op}),
        ("sim.sweep.run", [(sweep.ScenarioRunner, "run")],
         {"trace_of": _runner_trace}),
        ("sim.sweep.expand", [(sweep.SweepSpec, "expand")], {}),
        ("sim.sweep.cell_key", [(sweep, "cell_key"), (jobs, "cell_key")], {}),
        ("sim.sweep.cache_get", [(sweep.SweepCache, "get")],
         {"on_result": cache_hit}),
        ("sim.sweep.cache_put", [(sweep.SweepCache, "put")], {}),
        ("sim.executors.run", [(executors.LocalProcessExecutor, "run")], {}),
        ("sim.executors.cell", [(executors, "timed_cell")],
         {"trace_of": lambda a: a[0].label}),
        ("sim.discharge.cycle", [(discharge, "run_discharge_cycle")], {}),
        ("sim.discharge.policy_decide",
         [(baselines.PracticePolicy, "decide_battery"),
          (baselines.DualPolicy, "decide_battery"),
          (baselines.HeuristicPolicy, "decide_battery"),
          (controller.CapmanPolicy, "decide_battery")], {}),
        ("sim.discharge.phone_step", [(phone.Phone, "step")], {}),
        ("sim.discharge.metrics_record", [(metrics.MetricsRecorder, "record")],
         {}),
        ("battery.pack_draw", [(pack.BigLittlePack, "draw"),
                               (pack.SingleBatteryPack, "draw")], {}),
        ("thermal.step", [(rc.ThermalNetwork, "step")], {}),
        ("capman.observe", [(profiler.PowerProfiler, "observe")], {}),
        ("capman.mdp_build", [(profiler.PowerProfiler, "build_decision_mdp")],
         {}),
        ("core.value_iteration", [(online, "value_iteration")], {}),
        ("core.scheduler_decide", [(online.OnlineScheduler, "decide")], {}),
    ]
    for op, targets, kwargs in table:
        for owner, attr in targets:
            original = (owner.__dict__[attr] if isinstance(owner, type)
                        else getattr(owner, attr))
            if getattr(original, "__wrapped_by_perf__", False):
                raise RuntimeError(f"{op}: {owner}.{attr} is already wrapped")
            setattr(owner, attr, tracer.wrap(
                op, original, record=op not in PER_STEP_OPS, **kwargs))
    return [op for op, _, _ in table]


# ----------------------------------------------------------------------
# Reading a trace back
# ----------------------------------------------------------------------
#: Per-process reconciliation tolerance (self times vs traced wall).
RECONCILE_TOLERANCE = 0.05


def load(out_dir: Path) -> List[Dict[str, Any]]:
    """One record per traced process: its last ledger plus all its spans."""
    processes = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        spans = []
        ledger = None
        with path.open() as fh:
            for line in fh:
                record = json.loads(line)
                if record["kind"] == "span":
                    spans.append(record)
                else:
                    ledger = record
        if ledger is None:
            continue
        self_sum = sum(v[1] for v in ledger["ops"].values())
        wall = ledger["traced_wall_s"]
        error = abs(self_sum - wall) / wall if wall > 0 else 0.0
        processes.append({**ledger, "spans": spans, "self_sum_s": self_sum,
                          "reconcile_error": error})
    return processes
