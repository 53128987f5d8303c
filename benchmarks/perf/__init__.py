"""The repository benchmark: two workloads, end-to-end metrics, per-layer trace.

Run ``python -m benchmarks.perf --help`` (or ``python3
benchmarks/perf/run.py``) from the repository root; see
``benchmarks/perf/README.md`` for the metric glossary and the
layer-to-metric map.  Nothing is imported here, so ``python -m
benchmarks.perf.workloads`` and friends start without side effects.
"""
