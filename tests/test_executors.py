"""Tests for the LocalProcessExecutor interface: attach/detach, batch
runs with per-cell commits, and custom executors."""

import pytest

from repro.capman.baselines import DualPolicy
from repro.sim.executors import (CellFailure, ExecutionContext,
                                 LocalProcessExecutor)
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
        result = ScenarioRunner().run(_spec(trace))
        assert result.stats.executor == "local"
        # Everything-from-cache sweeps never touch an executor.
        again = ScenarioRunner()
        cached = again.run(_spec(trace))
        assert cached.stats.executor == "local"

    def test_custom_executor_is_used(self, trace):
        class Recording(LocalProcessExecutor):
            name = "recording"
            seen = []

            def run(self, cells):
                self.seen.append(len(cells))
                return super().run(cells)

        ex = Recording()
        result = ScenarioRunner(executor=ex).run(_spec(trace))
        assert result.stats.executor == "recording"
        assert ex.seen == [1]
