"""Command line: run, trace, compare, reference.

``python -m benchmarks.perf [run] --workload W --seed S --seconds T --trace 0|1``
    Runs each named workload (both by default) in fresh child
    processes and prints every metric with its unit, sample count and
    bound.  The last line of standard output is one JSON object:
    ``{"correct", "attempted", "failed", "metrics"}`` -- the end-to-end
    metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``python -m benchmarks.perf trace --workload W --seed S``
    The traced run plus a per-layer report (calls, self time, share of
    the client-observed job time); keeps the span files.
``python -m benchmarks.perf compare PARENT_DIR CHANGE_DIR``
    Pairs runs saved with ``run --out DIR`` (see :mod:`.compare`).
``python -m benchmarks.perf reference --seeds 1 2 [--scale full]``
    Recomputes ``reference.json`` on the direct library paths.

The timed run and the traced run are separate child processes: the
end-to-end numbers never carry tracing cost.  With ``--trace 1`` an
untraced and a traced child each measure for half of ``--seconds``, and
``trace.overhead_ratio`` is the traced child's median job latency over
the untraced one's.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .common import (ROOT, SCALES, WORK_DIR, WORKLOAD_NAMES, child_env,
                     load_spec, percentile, program_present,
                     python_module_cmd)

#: Set-ups timed per run (the timed child's own plus setup-only children).
SETUP_SAMPLES = 5
#: Whole-invocation budget; children are killed when it runs out.
DEADLINE_S = 170.0
#: Client polls of job status are off the blocking path of a job.
_OFF_PATH_OPS = ("service.status", "service.http.status", "service.http.other")


class ChildError(RuntimeError):
    pass


def _dev_seed() -> int:
    from .checks import load_reference

    return int(load_reference().get("dev_seed", 1))


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
class _Budget:
    def __init__(self, seconds: float) -> None:
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return max(1.0, self.end - time.monotonic())


def _spawn(workload: str, seed: int, seconds: float, scale: str, mode: str,
           budget: _Budget, trace_dir: Optional[Path] = None
           ) -> Tuple[float, Optional[Dict[str, Any]]]:
    """Start one workload child; returns (set-up seconds, RESULT record)."""
    work = WORK_DIR / f"{workload}-{os.getpid()}-{time.monotonic_ns()}"
    cmd = python_module_cmd(
        "benchmarks.perf.workloads", "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds), "--scale", scale,
        "--mode", mode, "--work-dir", str(work))
    if trace_dir is not None:
        cmd += ["--trace-dir", str(trace_dir)]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env=child_env())
    # A hung child must not hang the harness past its deadline.
    killer = threading.Timer(budget.left(), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        shutil.rmtree(work, ignore_errors=True)
    if ready.strip() != "READY" or code != 0:
        raise ChildError(f"{workload} child ({mode}) exited with code {code}")
    if mode == "setup":
        return setup_s, None
    lines = [ln for ln in rest.splitlines() if ln.startswith("RESULT ")]
    if not lines:
        raise ChildError(f"{workload} child printed no result")
    return setup_s, json.loads(lines[-1][len("RESULT "):])


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(record: Dict[str, Any], setups: List[float]) -> Dict[str, Any]:
    """Every end-to-end value, with its sample count."""
    lat = record["latencies_s"]
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "device_steps_per_s": (record["device_steps_per_s"], len(lat)),
        "job_latency_p50_s": (percentile(lat, 50), len(lat)),
        "peak_rss_mb": (record["peak_rss_mb"], 1),
    }


def _merged_ops(processes: List[Dict[str, Any]]) -> Dict[str, List[float]]:
    ops: Dict[str, List[float]] = {}
    for proc in processes:
        for name, (calls, self_s, total_s) in proc["ops"].items():
            agg = ops.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += self_s
            agg[2] += total_s
    return ops


def path_seconds(processes: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-op self time on the jobs' blocking path (status polls are off it)."""
    path: Dict[str, float] = {}
    for proc in processes:
        for name, (_, self_s, _) in proc["ops"].items():
            if name not in _OFF_PATH_OPS and name != "harness.timed":
                path[name] = path.get(name, 0.0) + self_s
    return path


def per_layer(traced: Dict[str, Any], untraced: Dict[str, Any],
              processes: List[Dict[str, Any]],
              declared: List[str]) -> Dict[str, Tuple[float, int]]:
    """Every per-layer value from the traced run's ledger and client."""
    ops = _merged_ops(processes)
    values: Dict[str, Tuple[float, int]] = {}
    for name in declared:
        for suffix, idx in ((".calls", 0), (".self_s", 1)):
            if name.endswith(suffix):
                agg = ops.get(name[: -len(suffix)], [0, 0.0, 0.0])
                values[name] = (agg[idx], int(agg[0]))
    for name, value in traced["client"].items():
        values[name] = (value, traced["attempted"])
    # The tail has ten samples beyond it only on serve-churn, and it is
    # too noisy on a shared host to gate, so it is reported, not bounded.
    values["load.job_latency_p95_s"] = (percentile(traced["latencies_s"], 95),
                                        len(traced["latencies_s"]))
    hits = sum(p["counts"].get("sim.sweep.cache_get.hits", 0)
               for p in processes)
    gets = ops.get("sim.sweep.cache_get", [0])[0]
    values["sim.sweep.cache_hit_ratio"] = (hits / gets if gets else 0.0, gets)
    base = percentile(untraced["latencies_s"], 50)
    values["trace.overhead_ratio"] = (
        percentile(traced["latencies_s"], 50) / base - 1.0 if base else 0.0,
        len(traced["latencies_s"]))
    job_s = sum(traced["latencies_s"])
    values["trace.unattributed_s"] = (
        max(0.0, job_s - sum(path_seconds(processes).values())),
        len(traced["latencies_s"]))
    values["trace.reconcile_error"] = (
        max((p["reconcile_error"] for p in processes), default=0.0),
        len(processes))
    return {name: values.get(name, (0.0, 0)) for name in declared}


def layer_report(traced: Dict[str, Any],
                 processes: List[Dict[str, Any]]) -> List[str]:
    """Per-op calls, self time and share of the client-observed job time."""
    job_s = sum(traced["latencies_s"]) or 1.0
    path = path_seconds(processes)
    lines = [f"  {'op':44s} {'calls':>9s} {'self_s':>10s} {'path share':>10s}"]
    for name, (calls, self_s, _) in sorted(_merged_ops(processes).items()):
        lines.append(f"  {name:44s} {int(calls):9d} {self_s:10.4f} "
                     f"{path.get(name, 0.0) / job_s:10.1%}")
    lines.append(f"  {'(unattributed: transport, queueing, poll gaps)':44s} "
                 f"{'':9s} {'':10s} "
                 f"{max(0.0, 1.0 - sum(path.values()) / job_s):10.1%}")
    lines.append("  reconciliation (self times vs traced wall, by role):")
    roles: Dict[str, List[float]] = {}
    for proc in processes:
        r = roles.setdefault(proc["role"], [0, 0.0, 0.0, 0.0])
        r[0] += 1
        r[1] += proc["traced_wall_s"]
        r[2] += proc["self_sum_s"]
        r[3] = max(r[3], proc["reconcile_error"])
    for role, (n, wall, self_sum, worst) in sorted(roles.items()):
        lines.append(f"    {role:12s} {int(n):4d} process(es)  traced wall "
                     f"{wall:9.4f} s  self sum {self_sum:9.4f} s  "
                     f"worst error {worst:.2%}")
    return lines


def _emit(values: Dict[str, Tuple[float, int]], declared: List[dict],
          ok: Dict[str, Any], extra_lines: List[str] = ()) -> Dict[str, Any]:
    metrics = {}
    for line in extra_lines:
        print(line)
    for m in declared:
        value, n = values[m["name"]]
        bound = (f", bound {m['bound']:.0%}, {m['better']} is better"
                 if "bound" in m else f", {m['better']} is better")
        print(f"  {m['name']:44s} = {value:<14.6g} {m['unit']:6s} "
              f"(n={n}{bound})")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": ok["correct"], "attempted": ok["attempted"],
            "failed": ok["failed"], "metrics": metrics}


def run_one(workload: str, seed: int, seconds: float, scale: str,
            trace: bool, budget: _Budget) -> Dict[str, Any]:
    """Measure one workload; returns the final JSON object."""
    spec = load_spec()
    print(f"# {workload}: seed {seed}, {seconds:g} s, scale {scale}, "
          f"{'traced' if trace else 'untraced'}")
    if not trace:
        setups = [_spawn(workload, seed, seconds, scale, "setup", budget)[0]
                  for _ in range(SETUP_SAMPLES - 1)]
        setup_s, record = _spawn(workload, seed, seconds, scale, "run", budget)
        setups.append(setup_s)
        _print_checks(record)
        return _emit(end_to_end(record, setups), spec["end_to_end"], record)
    trace_dir = WORK_DIR / "trace" / workload
    shutil.rmtree(trace_dir, ignore_errors=True)
    _, untraced = _spawn(workload, seed, seconds / 2, scale, "run", budget)
    _, traced = _spawn(workload, seed, seconds / 2, scale, "run", budget,
                       trace_dir=trace_dir)
    from .tracing import RECONCILE_TOLERANCE, load

    processes = load(trace_dir)
    _print_checks(traced)
    names = [m["name"] for m in spec["per_layer"]]
    values = per_layer(traced, untraced, processes, names)
    lines = [f"  spans: {trace_dir}"] + layer_report(traced, processes)
    bad = [p for p in processes if p["reconcile_error"] > RECONCILE_TOLERANCE]
    ok = dict(traced)
    if bad or not processes:
        lines.append(f"  RECONCILIATION FAILED in {len(bad)} process(es)")
        ok["correct"] = False
    return _emit(values, spec["per_layer"], ok, lines)


def _print_checks(record: Dict[str, Any]) -> None:
    c = record["checks"]
    print(f"  checks: {record['attempted']} jobs, {record['failed']} failed; "
          f"reference {c['reference']['checked']} checked / "
          f"{c['reference']['mismatched']} mismatched; scalar oracle "
          f"{c['oracle']['checked']} / {c['oracle']['mismatched']}; "
          f"inconsistent {c['inconsistent']}")
    for err in record.get("errors", []):
        print(f"  error: {err}")


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def _run_parser(prog: str, trace_default: int) -> argparse.ArgumentParser:
    spec_seconds = load_spec()["run_seconds"]
    p = argparse.ArgumentParser(prog=prog)
    p.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                   help="repeatable; default: both")
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: the dev seed)")
    p.add_argument("--seconds", type=float, default=spec_seconds)
    p.add_argument("--trace", type=int, choices=(0, 1), default=trace_default)
    p.add_argument("--scale", choices=SCALES, default="full")
    p.add_argument("--out", type=Path,
                   help="append each result to OUT/<workload>.jsonl "
                        "(input for compare)")
    return p


def _cmd_run(argv: List[str], prog: str, trace_default: int) -> int:
    args = _run_parser(prog, trace_default).parse_args(argv)
    seed = _dev_seed() if args.seed is None else args.seed
    workloads = args.workload or list(WORKLOAD_NAMES)
    budget = _Budget(DEADLINE_S * len(workloads))
    results = {}
    failed = False
    for workload in workloads:
        started_at = time.time()
        try:
            out = run_one(workload, seed, args.seconds, args.scale,
                          bool(args.trace), budget)
        except ChildError as exc:
            print(f"error: {exc}", file=sys.stderr)
            failed = True
            continue
        results[workload] = out
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            with (args.out / f"{workload}.jsonl").open("a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     "seconds": args.seconds,
                                     "trace": args.trace,
                                     "started_at": started_at,
                                     "result": out}) + "\n")
    if failed or not results:
        return 1
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }))
    if trace_default and not all(r["correct"] for r in results.values()):
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not program_present():
        print(f"error: the simulator sources are missing "
              f"({ROOT / 'src' / 'repro'}); run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    command = argv[0] if argv and not argv[0].startswith("-") else "run"
    rest = argv[1:] if argv and not argv[0].startswith("-") else argv
    if command == "run":
        return _cmd_run(rest, "python -m benchmarks.perf run", 0)
    if command == "trace":
        return _cmd_run(rest, "python -m benchmarks.perf trace", 1)
    if command == "compare":
        from .compare import main as compare_main

        return compare_main(rest)
    if command == "reference":
        from .checks import main as reference_main

        return reference_main(rest)
    print(f"error: unknown command {command!r} "
          f"(run, trace, compare, reference)", file=sys.stderr)
    return 2
