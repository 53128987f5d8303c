#!/usr/bin/env python
"""Benchmark-regression gate over the simulation throughput runs.

Compares a freshly produced ``BENCH_sim.json`` (written by
``benchmarks/test_sim_throughput.py``,
``benchmarks/test_fleet_throughput.py`` and
``benchmarks/test_service_throughput.py``) against the committed baseline
``benchmarks/baselines/BENCH_sim.baseline.json`` and fails -- nonzero
exit, for CI -- on regression.  Every section is gated by the same
three rules, driven by one table (:data:`SECTIONS`):

* **Deterministic fields match exactly.**  The grid identity, the
  serial run's step/cell accounting (``steps_total``, ``cells_total``,
  ``cells_failed``) and each fleet leg's work accounting (``batch``,
  ``steps_total``, ``fallback_steps``, and for the CAPMAN leg also
  ``adapter_rows``) are machine-independent; any drift means a
  benchmark is no longer measuring the same work and the baseline must
  be consciously regenerated, not silently absorbed.  The service
  section pins its HTTP job path's robustness invariants --
  ``failed_cells`` and ``double_commits`` are exact-zero in the
  baseline, so any failed or double-committed cell fails the gate as a
  correctness regression, not a perf one -- the engine that served it
  (``cells_fleet``), content-hash dedupe (``deduped_jobs``) and the
  one cache pack the served grid writes (``cache_files``).
* **Throughput holds within a tolerance.**  Each section's rate field
  must stay above ``tolerance x baseline`` (default 0.5x, i.e. flag a
  2x slowdown; CI machines are noisy, real hot-loop regressions are
  much bigger than that).  Override with ``--tolerance`` or the
  ``CAPMAN_BENCH_TOLERANCE`` env var.
* **The fleet speedup floors are absolute.**  Each fleet leg's
  ``speedup`` (batched vs serial device-steps/s, both timed on the
  same host) must stay at or above its floor -- 50x for the Dual leg,
  20x for the CAPMAN leg -- regardless of tolerance: these are the
  acceptance ratios, not machine-dependent rates.

A payload may carry any subset of the sections (each benchmark merges
its own section into ``BENCH_sim.json``); only sections present in the
fresh payload are gated, and only gated sections land in the baseline.

Regenerate the baseline after an intentional change with::

    python -m pytest benchmarks/test_sim_throughput.py \
        benchmarks/test_fleet_throughput.py \
        benchmarks/test_service_throughput.py --benchmark-only -x -q -s
    python scripts/bench_gate.py --write-baseline
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

REPO = Path(__file__).resolve().parent.parent
FRESH_PATH = REPO / "BENCH_sim.json"
BASELINE_PATH = REPO / "benchmarks" / "baselines" / "BENCH_sim.baseline.json"

#: Fraction of each baseline rate the fresh run must hold.
DEFAULT_TOLERANCE = 0.5


@dataclass(frozen=True)
class Section:
    """How one ``BENCH_sim.json`` section is gated."""

    #: Key of the section in the payload.
    name: str
    #: Machine-independent fields gated by exact equality.
    exact: Tuple[str, ...]
    #: Throughput field gated relative to the baseline (higher is better).
    rate: str
    #: Absolute floor on the section's ``speedup`` field, if it has one.
    min_speedup: Optional[float] = None
    #: Fields kept at the payload's top level instead of inside the
    #: section (the serial sweep's layout predates this table).
    hoisted: Tuple[str, ...] = ()

    @property
    def gated(self) -> Tuple[str, ...]:
        speedup = ("speedup",) if self.min_speedup is not None else ()
        return self.exact + (self.rate,) + speedup

    def fields(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """This section's gated fields, flat, from a fresh or gated payload."""
        leg = payload[self.name]
        return {name: (payload[name]
                       if name in self.hoisted and name not in leg
                       else leg[name])
                for name in self.gated}

    def store(self, gated: Dict[str, Any], fields: Dict[str, Any]) -> None:
        """Write flat ``fields`` into a gated payload in baseline layout."""
        gated[self.name] = {name: value for name, value in fields.items()
                            if name not in self.hoisted}
        for name in self.hoisted:
            gated[name] = fields[name]


_FLEET_EXACT = ("batch", "steps_total", "fallback_steps")

#: Every gated section.  The CAPMAN fleet leg also pins its driver mix
#: (every row on the compiled-table vector driver, none on the scalar
#: adapter); the service's ``failed_cells``/``double_commits`` are
#: exact-zero correctness pins, ``cells_fleet`` pins that the served
#: grid ran as one fleet batch, ``deduped_jobs`` pins that an
#: identical resubmission stayed a pure content-hash dedupe, and
#: ``cache_files`` pins that its results went to one cache pack.
SECTIONS = (
    Section("serial",
            exact=("grid", "steps_total", "cells_total", "cells_computed",
                   "cells_failed"),
            rate="steps_per_sec", hoisted=("grid", "steps_per_sec")),
    Section("fleet", exact=_FLEET_EXACT, rate="device_steps_per_sec",
            min_speedup=50.0),
    Section("capman_fleet", exact=_FLEET_EXACT + ("adapter_rows",),
            rate="device_steps_per_sec", min_speedup=20.0),
    Section("service",
            exact=("cells_total", "cells_fleet", "steps_total",
                   "deduped_jobs", "failed_cells", "double_commits",
                   "cache_files"),
            rate="steps_per_sec"),
)


def extract_gated(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The gated subset of a ``BENCH_sim.json`` payload.

    Only this subset lands in the baseline file, so the committed
    baseline never churns on machine-dependent noise (wall times,
    cpu_count).  Each section is optional; at least
    one must be present.
    """
    gated: Dict[str, Any] = {}
    for section in SECTIONS:
        if section.name in payload:
            section.store(gated, section.fields(payload))
    if not gated:
        names = ", ".join(repr(section.name) for section in SECTIONS)
        raise KeyError(f"payload has none of the sections {names}; run "
                       f"the throughput benchmarks first")
    return gated


def compare(fresh: Dict[str, Any], baseline: Dict[str, Any],
            tolerance: float) -> List[str]:
    """Human-readable regression descriptions (empty == gate passes).

    Only sections present in the *fresh* payload are gated (a partial
    benchmark run gates what it measured); a section present in fresh
    but missing from the baseline is a hard failure -- regenerate the
    baseline consciously.
    """
    problems: List[str] = []
    for section in SECTIONS:
        name = section.name
        if name not in fresh:
            continue
        got = section.fields(fresh)
        if name not in baseline:
            problems.append(f"fresh payload has a {name} section but the "
                            f"baseline does not; regenerate the baseline "
                            f"with --write-baseline")
        else:
            want = section.fields(baseline)
            for field in section.exact:
                if got[field] != want[field]:
                    problems.append(
                        f"{name}.{field}: expected exactly {want[field]}, "
                        f"got {got[field]} (deterministic field -- the "
                        f"benchmark's work changed)")
            floor = tolerance * want[section.rate]
            if got[section.rate] < floor:
                problems.append(
                    f"throughput regression: {name} {section.rate} "
                    f"{got[section.rate]:.0f} < {floor:.0f} "
                    f"({tolerance:g} x baseline {want[section.rate]:.0f})")
        if (section.min_speedup is not None
                and got["speedup"] < section.min_speedup):
            problems.append(
                f"{name} speedup collapse: {got['speedup']:.1f}x < "
                f"required {section.min_speedup:g}x over the serial "
                f"scalar loop (absolute floor, tolerance does not apply)")
    return problems


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh", type=Path, default=FRESH_PATH,
                        help="fresh benchmark payload (default: %(default)s)")
    parser.add_argument("--baseline", type=Path, default=BASELINE_PATH,
                        help="committed baseline (default: %(default)s)")
    parser.add_argument(
        "--tolerance", type=float,
        default=float(os.environ.get("CAPMAN_BENCH_TOLERANCE",
                                     DEFAULT_TOLERANCE)),
        help="minimum fraction of baseline steps/sec to accept "
             "(default: %(default)s, env: CAPMAN_BENCH_TOLERANCE)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="write the gated subset of --fresh to "
                             "--baseline instead of comparing")
    args = parser.parse_args(argv)
    if not 0.0 < args.tolerance <= 1.0:
        parser.error("--tolerance must lie in (0, 1]")

    if not args.fresh.exists():
        print(f"bench gate: no fresh payload at {args.fresh}; run\n"
              f"  python -m pytest benchmarks/test_sim_throughput.py "
              f"--benchmark-only -x -q -s", file=sys.stderr)
        return 2
    fresh = extract_gated(json.loads(args.fresh.read_text()))

    if args.write_baseline:
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        args.baseline.write_text(json.dumps(fresh, indent=2) + "\n")
        print(f"bench gate: baseline written to {args.baseline}")
        return 0

    if not args.baseline.exists():
        print(f"bench gate: no baseline at {args.baseline}; commit one "
              f"with --write-baseline", file=sys.stderr)
        return 2
    baseline = json.loads(args.baseline.read_text())

    problems = compare(fresh, baseline, args.tolerance)
    if problems:
        print("bench gate: FAIL", file=sys.stderr)
        for p in problems:
            print(f"  - {p}", file=sys.stderr)
        return 1
    summary = []
    for section in SECTIONS:
        if section.name in fresh:
            fields = section.fields(fresh)
            line = f"{section.name} {section.rate}={fields[section.rate]:.0f}"
            if section.min_speedup is not None:
                line += f" speedup={fields['speedup']:.1f}x"
            summary.append(line)
    print(f"bench gate: OK ({'; '.join(summary)}; "
          f"tolerance {args.tolerance:g})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
