"""Output checks: canonical result digests and the stored reference.

A result's digest is a SHA-256 over its simulated fields only -- the
headline numbers and every recorded metric series, as raw float64
bytes -- so wall-clock fields and telemetry never affect it.  An
operation's digest hashes its results' digests in order.

``reference.json`` holds, per scale, workload and seed, the digest of
each operation ``k`` the workload generates from that seed.  It covers
a dev seed and a held-out seed.  Runs on other seeds (and operations
past the stored list) are checked by the scalar-oracle spot checks and
the cross-job consistency checks in :mod:`benchmarks.perf.workloads`.
"""

from __future__ import annotations

import hashlib
import json
import struct
from typing import Dict, Iterable

from .common import REFERENCE_PATH

_SCALARS = ("service_time_s", "energy_delivered_j", "big_time_s",
            "little_time_s", "tec_on_time_s", "tec_energy_j",
            "max_cpu_temp_c", "time_above_threshold_s")


def result_digest(result) -> str:
    """SHA-256 over the canonical simulated fields of one cell result."""
    if not hasattr(result, "service_time_s"):
        raise TypeError(f"not a discharge result: {result!r}")
    h = hashlib.sha256()
    h.update(struct.pack("<8d", *(float(getattr(result, f)) for f in _SCALARS)))
    h.update(struct.pack("<qq", int(result.switch_count),
                         int(result.step_count)))
    metrics = result.metrics
    for name in sorted(metrics.series_names):
        series = metrics.series(name)
        h.update(name.encode())
        h.update(series.times.astype("<f8").tobytes())
        h.update(series.values.astype("<f8").tobytes())
    return h.hexdigest()


def op_digest(cell_digests: Iterable[str]) -> str:
    h = hashlib.sha256()
    for d in cell_digests:
        h.update(d.encode())
    return h.hexdigest()


def load_reference() -> dict:
    if not REFERENCE_PATH.exists():
        return {}
    with REFERENCE_PATH.open() as fh:
        return json.load(fh)


def compare_to_reference(scale: str, workload: str, seed: int,
                         digests: Dict[int, str]) -> Dict[str, int]:
    """``{"checked": n, "mismatched": m}`` for ops ``k`` the reference covers."""
    stored = load_reference().get("digests", {}).get(scale, {}).get(
        workload, {}).get(str(seed), [])
    checked = mismatched = 0
    for k, digest in digests.items():
        if k < len(stored):
            checked += 1
            mismatched += digest != stored[k]
    return {"checked": checked, "mismatched": mismatched}


#: Ops stored per (scale, workload, seed): a few times more than one run
#: of ``run_seconds`` completes today, so a faster engine stays covered.
#: serve-churn stores every job a 60-second run can generate.
REFERENCE_OPS = {
    "full": {"serve-grid": 24, "serve-churn": 720},
    "tiny": {"serve-grid": 60, "serve-churn": 60},
}


def main(argv=None) -> int:
    """``python -m benchmarks.perf reference --seeds DEV HELD_OUT``.

    Recomputes the stored digests on the direct library path (the
    scalar engine in-process); run it only after a deliberate change to
    what the simulator computes.
    """
    import argparse
    import shutil

    from .common import SCALES, WORK_DIR, WORKLOAD_NAMES
    from .workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf reference")
    parser.add_argument("--seeds", type=int, nargs=2, default=(1, 2),
                        metavar=("DEV", "HELD_OUT"))
    parser.add_argument("--scale", action="append", choices=SCALES)
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    args = parser.parse_args(argv)

    ref = load_reference()
    ref["dev_seed"], ref["held_out_seed"] = args.seeds
    digests = ref.setdefault("digests", {})
    for scale in args.scale or SCALES:
        for name in args.workload or WORKLOAD_NAMES:
            for seed in args.seeds:
                work = WORK_DIR / f"reference-{name}-{seed}"
                wl = WORKLOADS[name](seed, scale, work, None)
                ops = []
                try:
                    for results in wl.direct_ops(REFERENCE_OPS[scale][name]):
                        ops.append(op_digest(result_digest(r) for r in results))
                finally:
                    shutil.rmtree(work, ignore_errors=True)
                digests.setdefault(scale, {}).setdefault(name, {})[str(seed)] = ops
                print(f"{scale} {name} seed {seed}: {len(ops)} ops", flush=True)
                REFERENCE_PATH.write_text(json.dumps(ref, indent=1,
                                                     sort_keys=True) + "\n")
    return 0
