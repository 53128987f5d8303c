"""Tests for the LocalProcessExecutor interface and the per-cell timeout
mechanism surfacing (no more silent degradation off the main thread)."""

import threading
import warnings

import pytest

from repro.capman.baselines import DualPolicy
from repro.sim.executors import (CellFailure, ExecutionContext,
                                 LocalProcessExecutor,
                                 choose_timeout_mechanism, timed_cell)
from repro.sim.sweep import ScenarioRunner, SweepSpec
from repro.workload.generators import VideoWorkload
from repro.workload.traces import record_trace


@pytest.fixture(scope="module")
def trace():
    return record_trace(VideoWorkload(seed=5), 120.0)


def _spec(trace, **kwargs):
    defaults = dict(
        policies={"Dual": DualPolicy(capacity_mah=40.0)},
        traces={"Video": trace},
        max_duration_s=900.0,
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


class TestInterface:
    def test_attach_detach_lifecycle(self):
        ex = LocalProcessExecutor()
        with pytest.raises(RuntimeError):
            _ = ex.ctx  # unattached
        ctx = ExecutionContext()
        ex.attach(ctx)
        assert ex.ctx is ctx
        with pytest.raises(RuntimeError):
            ex.attach(ctx)  # double attach
        ex.detach()
        ex.detach()  # idempotent
        ex.attach(ctx)  # reusable after detach
        ex.detach()

    def test_base_executor_runs_cells_and_finalises(self, trace):
        committed = []
        ex = LocalProcessExecutor()
        ex.attach(ExecutionContext(
            on_final=lambda index, outcome: committed.append(index)))
        cells = _spec(trace).expand()
        items = ex.run(cells)
        ex.detach()
        assert [item[0] for item in items] == [cell.index for cell in cells]
        assert committed == [cell.index for cell in cells]
        assert not any(isinstance(item[1], CellFailure) for item in items)

    def test_runner_reports_executor_name(self, trace):
        result = ScenarioRunner(workers=1).run(_spec(trace))
        assert result.stats.executor == "local"
        assert result.stats.workers == 1
        # Everything-from-cache sweeps never touch an executor.
        again = ScenarioRunner(workers=1)
        cached = again.run(_spec(trace))
        assert cached.stats.executor == "local"

    def test_custom_executor_is_used(self, trace):
        class Recording(LocalProcessExecutor):
            name = "recording"
            seen = []

            def run(self, cells):
                self.seen.append(len(cells))
                return super().run(cells)

        ex = Recording(workers=1)
        result = ScenarioRunner(executor=ex).run(_spec(trace))
        assert result.stats.executor == "recording"
        assert ex.seen == [1]


class TestTimeoutMechanism:
    def test_choice_on_main_thread_is_sigalrm(self):
        assert choose_timeout_mechanism(5.0) == "sigalrm"
        assert choose_timeout_mechanism(None) == "none"
        assert choose_timeout_mechanism(0.0) == "none"

    def test_choice_off_main_thread_is_cooperative(self):
        seen = []
        thread = threading.Thread(
            target=lambda: seen.append(choose_timeout_mechanism(5.0)))
        thread.start()
        thread.join()
        assert seen == ["cooperative"]

    def test_stats_surface_chosen_mechanism(self, trace):
        no_budget = ScenarioRunner(workers=1).run(_spec(trace))
        assert no_budget.stats.timeout_mechanism == "none"
        budgeted = ScenarioRunner(workers=1, cell_timeout_s=60.0).run(
            _spec(trace, ambients_c=(30.0,)))
        assert budgeted.stats.timeout_mechanism == "sigalrm"

    def test_cooperative_fallback_raises_same_contract(self, trace):
        """Off the main thread the budget degrades to the polled
        deadline -- with a warning -- but still produces a CellFailure
        of the same CellTimeoutError type, never a silent no-timeout.

        Deterministic: the budget is far below one cell's compute
        time, so the first in-loop poll after it elapses must fire.
        """
        cell = _spec(trace).expand()[0]
        out = {}

        def run_in_thread():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out["item"] = timed_cell(cell, timeout_s=0.001)
                out["warnings"] = [str(w.message) for w in caught]

        thread = threading.Thread(target=run_in_thread)
        thread.start()
        thread.join()
        failure = out["item"][1]
        assert isinstance(failure, CellFailure)
        assert failure.error_type == "CellTimeoutError"
        assert "per-cell timeout" in failure.message
        assert any("cooperative" in msg for msg in out["warnings"])
