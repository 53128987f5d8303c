"""Paths, the metric declaration and small statistics shared by every module."""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path
from typing import Dict, List, Sequence

#: The checkout root (``benchmarks/perf/common.py`` -> two levels up).
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
SPEC_PATH = ROOT / "BENCHMARK.json"
REFERENCE_PATH = HERE / "reference.json"
#: Scratch space for service roots and span files (listed in .gitignore).
WORK_DIR = ROOT / ".bench_work"

WORKLOAD_NAMES = ("serve-grid", "serve-churn")
SCALES = ("full", "tiny")


def program_present() -> bool:
    """Whether the simulator sources the benchmark drives are checked out."""
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> Dict[str, str]:
    """Environment for every process the benchmark starts.

    The simulator runs from ``src`` (nothing is installed), and every
    ``CAPMAN_*`` knob is removed so the measured program is the one
    shipped: no distributed backend, no auth, no fleet sharding.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("CAPMAN_")}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    return env


def python_module_cmd(module: str, *args: str) -> List[str]:
    return [sys.executable, "-m", module, *args]


def load_spec() -> dict:
    with SPEC_PATH.open() as fh:
        return json.load(fh)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100] (NumPy's default)."""
    if not values:
        return 0.0
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)
