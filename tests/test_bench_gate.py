"""Tests for ``scripts/bench_gate.py``: the one table of section specs
gates every section by the same exact / rate / speedup-floor rules."""

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

_REPO = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "bench_gate", _REPO / "scripts" / "bench_gate.py")
bench_gate = importlib.util.module_from_spec(_SPEC)
# Registered first: the script's dataclass resolves its own module.
sys.modules["bench_gate"] = bench_gate
_SPEC.loader.exec_module(bench_gate)

_SECTIONS = {section.name: section for section in bench_gate.SECTIONS}


@pytest.fixture()
def baseline():
    return json.loads(bench_gate.BASELINE_PATH.read_text())


def _set(payload, section, field, value):
    if field in section.hoisted:
        payload[field] = value
    else:
        payload[section.name][field] = value


def _perturbed(value):
    if isinstance(value, dict):
        return {**value, "cells": value.get("cells", 0) + 1}
    return value + 1


def test_committed_baseline_passes_against_itself(baseline, tmp_path):
    assert set(baseline) - {"grid", "steps_per_sec"} == set(_SECTIONS)
    assert bench_gate.extract_gated(baseline) == baseline
    for tolerance in (0.5, 1.0):
        assert bench_gate.compare(baseline, baseline, tolerance) == []
    path = tmp_path / "fresh.json"
    path.write_text(json.dumps(baseline))
    assert bench_gate.main(["--fresh", str(path), "--baseline",
                            str(bench_gate.BASELINE_PATH)]) == 0


@pytest.mark.parametrize("name,field", [
    (section.name, field)
    for section in bench_gate.SECTIONS for field in section.exact])
def test_perturbing_an_exact_field_fails(baseline, name, field):
    section = _SECTIONS[name]
    fresh = copy.deepcopy(baseline)
    _set(fresh, section, field, _perturbed(section.fields(baseline)[field]))
    problems = bench_gate.compare(fresh, baseline, 0.5)
    assert len(problems) == 1 and f"{name}.{field}" in problems[0]


@pytest.mark.parametrize("name", sorted(_SECTIONS))
def test_rate_below_tolerance_times_baseline_fails(baseline, name):
    section = _SECTIONS[name]
    want = section.fields(baseline)[section.rate]
    fresh = copy.deepcopy(baseline)
    _set(fresh, section, section.rate, 0.51 * want)
    assert bench_gate.compare(fresh, baseline, 0.5) == []
    _set(fresh, section, section.rate, 0.49 * want)
    problems = bench_gate.compare(fresh, baseline, 0.5)
    assert len(problems) == 1 and "throughput regression" in problems[0]


@pytest.mark.parametrize("name,floor", [("fleet", 50.0),
                                        ("capman_fleet", 20.0)])
def test_speedup_below_floor_fails_even_at_full_tolerance(baseline, name,
                                                          floor):
    assert _SECTIONS[name].min_speedup == floor
    fresh = copy.deepcopy(baseline)
    fresh[name]["speedup"] = floor
    assert bench_gate.compare(fresh, baseline, 1.0) == []
    fresh[name]["speedup"] = floor - 0.1
    problems = bench_gate.compare(fresh, baseline, 1.0)
    assert len(problems) == 1 and "speedup collapse" in problems[0]


@pytest.mark.parametrize("name", sorted(_SECTIONS))
def test_fresh_section_missing_from_baseline_fails(baseline, name):
    section = _SECTIONS[name]
    stale = copy.deepcopy(baseline)
    del stale[name]
    problems = bench_gate.compare(baseline, stale, 0.5)
    assert len(problems) == 1 and "regenerate the baseline" in problems[0]
    # Gating is per fresh section: one the fresh run did not measure
    # is skipped, not failed.
    partial = {key: value for key, value in baseline.items()
               if key not in (name,) + section.hoisted}
    assert bench_gate.compare(partial, baseline, 0.5) == []
