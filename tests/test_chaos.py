"""Chaos-sweep harness tests -- also the CI ``chaos-smoke`` target.

The smoke contract: a tiny grid crossing switch-stuck + TEC-dead +
sensor-dropout scenarios with a policy/trace grid runs to completion,
the degraded modes engage where they should, and no cell aborts the
grid.
"""

import pytest

from repro.capman.controller import CapmanPolicy
from repro.faults import MODE_SINGLE_BATTERY, MODE_THERMAL_FALLBACK
from repro.sim.sweep import ScenarioRunner
from repro.faults.schedule import FaultSchedule
from repro.workload.generators import GeekbenchWorkload
from repro.workload.traces import record_trace

from chaos_grid import (
    ChaosSpec,
    FaultScenario,
    NOMINAL_SCENARIO,
    run_chaos,
    standard_scenarios,
)


@pytest.fixture(scope="module")
def report():
    trace = record_trace(GeekbenchWorkload(seed=2), 600.0)
    spec = ChaosSpec(
        policies={"CAPMAN": CapmanPolicy()},
        traces={"geek": trace},
        scenarios=standard_scenarios(start_s=60.0),
        max_duration_s=1500.0,
    )
    return run_chaos(spec)


class TestChaosSmoke:
    def test_grid_completes_without_aborts(self, report):
        # 1 policy x 1 trace x (nominal + 3 fault scenarios).
        assert len(report.rows) == 4
        assert report.survival_rate == 1.0
        assert all(r.error == "" for r in report.rows)

    def test_degraded_modes_engage(self, report):
        assert report.row("CAPMAN", "geek",
                          "switch-stuck").final_mode == MODE_SINGLE_BATTERY
        assert report.row("CAPMAN", "geek",
                          "tec-dead").final_mode == MODE_THERMAL_FALLBACK

    def test_nominal_baseline_clean(self, report):
        nominal = report.row("CAPMAN", "geek", "nominal")
        assert nominal.final_mode == "normal"
        assert nominal.fault_event_count == 0
        assert nominal.service_delta_s == 0.0

    def test_deltas_computed_against_nominal(self, report):
        nominal = report.row("CAPMAN", "geek", "nominal")
        for row in report.rows:
            if row.scenario == "nominal":
                continue
            assert row.service_delta_s == pytest.approx(
                row.service_time_s - nominal.service_time_s)
            assert row.thermal_delta_s == pytest.approx(
                row.time_above_threshold_s - nominal.time_above_threshold_s)

    def test_fault_scenarios_log_events(self, report):
        for name in ("switch-stuck", "tec-dead", "sensor-dropout"):
            assert report.row("CAPMAN", "geek", name).fault_event_count > 0

    def test_summary_renders(self, report):
        text = report.summary()
        assert "switch-stuck" in text
        assert "tec-dead" in text
        assert "nominal" in text

    def test_by_scenario(self, report):
        rows = report.by_scenario("tec-dead")
        assert len(rows) == 1 and rows[0].scenario == "tec-dead"
        with pytest.raises(KeyError):
            report.row("CAPMAN", "geek", "no-such-scenario")


class TestChaosSpec:
    def test_nominal_always_included(self):
        trace = record_trace(GeekbenchWorkload(seed=2), 60.0)
        spec = ChaosSpec(policies={"P": CapmanPolicy()},
                         traces={"t": trace}, scenarios=[])
        names = [s.name for s in spec.all_scenarios()]
        assert names == ["nominal"]
        sweep = spec.to_sweep()
        assert list(sweep.policies) == ["P@nominal"]

    def test_scenario_name_rejects_separator(self):
        with pytest.raises(ValueError):
            FaultScenario("bad@name", FaultSchedule())

    def test_wrapped_policy_keys(self):
        trace = record_trace(GeekbenchWorkload(seed=2), 60.0)
        spec = ChaosSpec(policies={"P": CapmanPolicy()},
                         traces={"t": trace},
                         scenarios=standard_scenarios())
        keys = set(spec.to_sweep().policies)
        assert keys == {"P@nominal", "P@switch-stuck", "P@tec-dead",
                        "P@sensor-dropout"}

    def test_chaos_results_cacheable(self, tmp_path):
        trace = record_trace(GeekbenchWorkload(seed=2), 120.0)
        spec = ChaosSpec(policies={"P": CapmanPolicy()},
                         traces={"t": trace},
                         scenarios=standard_scenarios(start_s=30.0),
                         max_duration_s=300.0)
        cold = run_chaos(spec, ScenarioRunner(cache=tmp_path))
        warm = run_chaos(spec, ScenarioRunner(cache=tmp_path))
        assert cold.sweep.stats.cache_hits == 0
        assert warm.sweep.stats.cache_hits == len(cold.rows)
        assert warm.rows == cold.rows
