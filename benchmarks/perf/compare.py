"""``python -m benchmarks.perf compare PARENT_DIR CHANGE_DIR``

Each directory holds the ``<workload>.jsonl`` files that ``run --out
DIR`` appends to, one untraced run per line.  Run the two commits in
alternating pairs -- parent then change, change then parent, ... --
with the same seeds and ``--seconds``; pair ``i`` is the ``i``-th run
of each side.

For every end-to-end metric, one row per workload (choosing-metrics
section 8):

* each side's median and quartiles (``statistics.quantiles(n=4)``);
* wins: pairs in which the change reads better, ties counting for
  neither side;
* **gain** -- at least 10 pairs, the change wins at least 9/10 of them,
  and the medians differ by more than the parent's quartile distance;
* **unresolved** -- a side's spread (quartile distance over median)
  exceeds the metric's bound, unless every change run beats every
  parent run;
* **REGRESSION** -- the change's median is worse than the parent's by
  more than the bound; otherwise **within bound**.

A gain does not count when the change fails more operations.  The
exit code is 1 when any row regresses or any change run is incorrect.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path
from typing import Dict, List, Sequence

from .common import load_spec

MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> List[float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return [values[0]] * 3 if values else [0.0] * 3
    return list(statistics.quantiles(values, n=4))


def load_runs(directory: Path) -> Dict[str, List[dict]]:
    """workload -> untraced run records, oldest first."""
    runs: Dict[str, List[dict]] = {}
    for path in sorted(Path(directory).glob("*.jsonl")):
        with path.open() as fh:
            for line in fh:
                if line.strip():
                    record = json.loads(line)
                    if not record.get("trace"):
                        runs.setdefault(record["workload"], []).append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["started_at"])
    return runs


def alternating(parent: Sequence[dict], change: Sequence[dict]) -> bool:
    """Whether pair ``i``'s two runs are adjacent and the first side flips."""
    tagged = sorted([(r["started_at"], "p", i) for i, r in enumerate(parent)]
                    + [(r["started_at"], "c", i) for i, r in enumerate(change)])
    n = min(len(parent), len(change))
    if len(tagged) != 2 * n:
        return False
    previous_first = None
    for j in range(0, 2 * n, 2):
        (_, a, i), (_, b, k) = tagged[j], tagged[j + 1]
        if a == b or i != k or a == previous_first:
            return False
        previous_first = a
    return True


def verdict(metric: dict, parent: List[float], change: List[float]) -> dict:
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    n = min(len(parent), len(change))
    pairs = list(zip(parent[:n], change[:n]))
    wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
    pq, cq = quartiles(parent), quartiles(change)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_iqr = pq[2] - pq[0]
    spread = max((pq[2] - pq[0]) / p_med if p_med else 0.0,
                 (cq[2] - cq[0]) / c_med if c_med else 0.0)
    improvement = (p_med - c_med) if lower else (c_med - p_med)
    all_better = (max(change) < min(parent) if lower
                  else min(change) > max(parent))
    if n >= MIN_PAIRS and wins >= WIN_SHARE * n and improvement > p_iqr:
        label = "gain"
    elif spread > bound and not all_better:
        label = "unresolved"
    elif p_med and -improvement / p_med > bound:
        label = "REGRESSION"
    else:
        label = "within bound"
    return {"pairs": n, "wins": wins, "parent": pq, "change": cq,
            "spread": spread, "label": label}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf compare")
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    args = parser.parse_args(argv)

    metrics = load_spec()["end_to_end"]
    parent_runs = load_runs(args.parent_dir)
    change_runs = load_runs(args.change_dir)
    bad = False
    print(f"{'workload':12s} {'metric':20s} {'parent q1/med/q3':>32s} "
          f"{'change q1/med/q3':>32s} {'wins':>7s} {'spread':>7s}  verdict")
    for workload in sorted(set(parent_runs) & set(change_runs)):
        parent, change = parent_runs[workload], change_runs[workload]
        failed_p = sum(r["result"]["failed"] for r in parent)
        failed_c = sum(r["result"]["failed"] for r in change)
        incorrect = sum(not r["result"]["correct"] for r in change)
        notes = []
        if not alternating(parent, change):
            notes.append("runs do not alternate")
        if min(len(parent), len(change)) < MIN_PAIRS:
            notes.append(f"fewer than {MIN_PAIRS} pairs")
        if failed_c > failed_p:
            notes.append(f"change fails more ops ({failed_c} > {failed_p}): "
                         f"no gain counts")
        if incorrect:
            notes.append(f"{incorrect} incorrect change run(s)")
            bad = True
        for m in metrics:
            p = [r["result"]["metrics"][m["name"]]["value"] for r in parent]
            c = [r["result"]["metrics"][m["name"]]["value"] for r in change]
            v = verdict(m, p, c)
            if v["label"] == "gain" and failed_c > failed_p:
                v["label"] = "within bound"
            bad |= v["label"] == "REGRESSION"
            fmt = "/".join(f"{x:.4g}" for x in v["parent"])
            cfmt = "/".join(f"{x:.4g}" for x in v["change"])
            print(f"{workload:12s} {m['name']:20s} {fmt:>32s} {cfmt:>32s} "
                  f"{v['wins']:>3d}/{v['pairs']:<3d} {v['spread']:7.1%}  "
                  f"{v['label']} (bound {m['bound']:.0%})")
        for note in notes:
            print(f"{workload:12s} note: {note}")
    return 1 if bad else 0
