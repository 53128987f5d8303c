"""Tests for the sweep's serial scalar loop, driven through
``ScenarioRunner``: failure containment, commit order and progress."""

import pytest

from repro.capman.baselines import DualPolicy
from repro.durability.journal import RunJournal
from repro.sim import executors
from repro.sim.executors import CellFailure
from repro.sim.sweep import ScenarioRunner, SweepSpec
from repro.workload.generators import VideoWorkload
from repro.workload.traces import record_trace


class _RaisingPolicy(DualPolicy):
    """A policy whose cell raises inside the simulator."""

    def build_pack(self):
        raise RuntimeError("synthetic cell failure")


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


def _records(journal, kind):
    return [r["data"] for r in RunJournal.replay(journal) if r["type"] == kind]


class TestSerialLoop:
    def test_raising_cell_is_a_failure_and_is_not_committed(self, trace,
                                                            tmp_path):
        journal = tmp_path / "run.journal"
        spec = _spec(trace, policies={
            "Good": DualPolicy(capacity_mah=40.0),
            "Bad": _RaisingPolicy(capacity_mah=40.0)})
        runner = ScenarioRunner(journal=journal)
        result = runner.run(spec)
        bad = result.get(policy="Bad")
        assert isinstance(bad, CellFailure)
        assert (bad.error_type, bad.attempts) == ("RuntimeError", 1)
        assert result.stats.cells_failed == 1
        assert [c["index"] for c in _records(journal, "cell_commit")] == [0]
        assert runner.progress().cells == {0: "done", 1: "failed"}

    def test_journalled_scalar_sweep_commits_in_cell_order(self, trace,
                                                           tmp_path):
        journal = tmp_path / "run.journal"
        spec = _spec(trace, policies={
            f"Dual{i}": DualPolicy(capacity_mah=30.0 + 10.0 * i)
            for i in range(4)})
        result = ScenarioRunner(journal=journal).run(spec)
        assert result.stats.cells_fleet == 0
        assert [c["index"] for c in _records(journal, "cell_commit")] == [
            0, 1, 2, 3]

    def test_progress_shows_running_before_done(self, trace, monkeypatch):
        runner = ScenarioRunner()
        seen = []
        timed_cell = executors.timed_cell

        def spying(cell, *args):
            seen.append(("before", runner.progress().cells[cell.index]))
            item = timed_cell(cell, *args)
            seen.append(("after", runner.progress().cells[cell.index]))
            return item

        monkeypatch.setattr(executors, "timed_cell", spying)
        runner.run(_spec(trace))
        assert seen == [("before", "running"), ("after", "running")]
        assert runner.progress().cells == {0: "done"}
