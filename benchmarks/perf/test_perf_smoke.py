"""Smoke test of the repository benchmark at ``--scale tiny``.

Every workload runs for two seconds, untraced and traced, through the
same command ``BENCHMARK.json`` names.  Each run must print every
metric the file declares with its unit, end with the JSON result line,
fail no operation, and match the stored reference digests for the dev
seed.  Collected by the ``benchmark-collection`` CI job; run it with
``PYTHONPATH=src pytest benchmarks/perf/test_perf_smoke.py``.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads(
    (ROOT / "benchmarks" / "perf" / "reference.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
CHECKS = re.compile(r"reference (\d+) checked / (\d+) mismatched; "
                    r"scalar oracle (\d+) / (\d+); inconsistent (\d+)")


def _run(workload, trace):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", str(REFERENCE["dev_seed"]), "--seconds", "2",
           "--scale", "tiny", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    lines = _run(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], lines

    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        printed = [ln.split() for ln in lines[:-1]
                   if ln.split()[:1] == [m["name"]]]
        assert printed and printed[0][3] == m["unit"], m["name"]

    checks = [CHECKS.search(ln) for ln in lines if "checks:" in ln]
    ref_checked, ref_bad, oracle_checked, oracle_bad, inconsistent = map(
        int, checks[0].groups())
    assert ref_checked >= 1 and ref_bad == 0
    assert oracle_checked >= 1 and oracle_bad == 0
    assert inconsistent == 0
