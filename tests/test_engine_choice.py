"""The sweep runner's automatic engine choice.

An in-process sweep with no per-cell bound, no sidecar checkpoints and
obs off runs its fleet-supported discharge cells as one vectorised
batch once there are at least ``FLEET_MIN_ROWS`` of them; everything
else runs on the scalar engine.  These tests pin the threshold, the
byte-identity of both paths against per-cell ``run_discharge_cycle``,
exactly-once journal commits across a torn-tail resume, the counted
fallback, the logged rejection reasons, and that served jobs report
which engine ran their cells.
"""

import base64
import dataclasses
import logging
import pickle

import pytest

from repro import obs
from repro.battery.cell import Cell
from repro.battery.chemistry import LCO
from repro.battery.pack import SingleBatteryPack
from repro.capman.baselines import DualPolicy, HeuristicPolicy, PracticePolicy
from repro.capman.controller import CapmanPolicy
from repro.fleet import FleetSpec
from repro.service import CapmanService, parse_spec
from repro.sim.chaos import journal_commit_counts
from repro.sim.discharge import run_discharge_cycle
from repro.sim.executors import LocalProcessExecutor
from repro.sim.sweep import FLEET_MIN_ROWS, ScenarioRunner, SweepSpec
from repro.workload.generators import VideoWorkload
from repro.workload.traces import record_trace

from service_client import api, small_grid, wait_for_job

CONTROL_DT = 2.0
MAX_DURATION_S = 120.0
_TRACE = record_trace(VideoWorkload(seed=3), duration_s=60.0)
_KINDS = (DualPolicy, CapmanPolicy, HeuristicPolicy)


def _spec(n_cells: int) -> SweepSpec:
    """``n_cells`` fleet-supported cells: one per policy, mixed kinds
    and capacities (the small ones deplete inside the window)."""
    policies = {
        f"p{i}": _KINDS[i % 3](capacity_mah=30.0 + 20.0 * i)
        for i in range(n_cells)
    }
    return SweepSpec(policies=policies, traces={"video": _TRACE},
                     control_dts=(CONTROL_DT,),
                     max_duration_s=MAX_DURATION_S)


class _TaggedCell(Cell):
    """A cell subclass: the fleet cannot vouch for its physics."""


@dataclasses.dataclass
class _TaggedCellPractice(PracticePolicy):
    def build_pack(self):
        return SingleBatteryPack(cell=_TaggedCell(LCO, self.capacity_mah))


@dataclasses.dataclass
class _ThrottledDual(DualPolicy):
    def filter_demand(self, demand, ctx):
        return demand


def _oracle(spec: SweepSpec):
    """Per-cell scalar reference, normalised like sweep results."""
    out = []
    for cell in spec.expand():
        policy = pickle.loads(pickle.dumps(cell.policy))
        result = run_discharge_cycle(
            policy, cell.trace, profile=cell.profile,
            control_dt=cell.control_dt, max_duration_s=cell.max_duration_s,
            ambient_c=cell.ambient_c, record_every=cell.record_every)
        out.append(dataclasses.replace(result, wall_time_s=0.0))
    return [pickle.dumps(r, protocol=4) for r in out]


def _bytes(result):
    return [pickle.dumps(r, protocol=4) for r in result.results]


@pytest.mark.parametrize("n_cells,fleet_rows", [
    (FLEET_MIN_ROWS - 1, 0),
    (FLEET_MIN_ROWS, FLEET_MIN_ROWS),
])
def test_threshold_picks_the_engine_and_both_match_the_oracle(
        n_cells, fleet_rows):
    spec = _spec(n_cells)
    result = ScenarioRunner().run(spec)
    assert result.stats.cells_fleet == fleet_rows
    assert result.stats.fleet_fallbacks == 0
    assert result.stats.cells_computed == n_cells
    assert _bytes(result) == _oracle(spec)


def _tear_at_commit(journal, keep: int) -> None:
    """Truncate the journal halfway through its ``keep``-th (0-based)
    ``cell_commit`` record, as a crash mid-append leaves it."""
    data = journal.read_bytes()
    offset, seen = 0, 0
    for line in data.splitlines(keepends=True):
        if b'"type":"cell_commit"' in line:
            if seen == keep:
                journal.write_bytes(data[:offset + len(line) // 2])
                return
            seen += 1
        offset += len(line)
    raise AssertionError(f"journal has only {seen} commits")


@pytest.mark.parametrize("keep", [0, 5])
def test_journalled_fleet_commits_once_and_resumes_a_torn_tail(
        tmp_path, keep):
    """A crash mid-batch loses only uncommitted rows: ``keep`` commits
    survive the torn tail, resume recomputes the rest (one fleet batch
    again, or scalar cells once fewer than ``FLEET_MIN_ROWS`` remain),
    and every cell ends with exactly one commit."""
    spec = _spec(FLEET_MIN_ROWS)
    journal = tmp_path / "run.journal"
    first = ScenarioRunner(journal=journal).run(spec)
    assert first.stats.cells_fleet == FLEET_MIN_ROWS
    assert journal_commit_counts(journal) == {
        i: 1 for i in range(FLEET_MIN_ROWS)}

    _tear_at_commit(journal, keep)
    resumed = ScenarioRunner(journal=journal).run_or_resume(spec)
    assert resumed.stats.cells_resumed == keep
    assert resumed.stats.cells_computed == FLEET_MIN_ROWS - keep
    assert resumed.stats.cells_fleet == (
        FLEET_MIN_ROWS if keep == 0 else 0)
    assert journal_commit_counts(journal) == {
        i: 1 for i in range(FLEET_MIN_ROWS)}
    assert _bytes(resumed) == _bytes(first)


def test_fleet_failure_is_counted_and_falls_back_to_scalar(monkeypatch):
    spec = _spec(FLEET_MIN_ROWS)

    def broken_build(self):
        raise RuntimeError("injected fleet build failure")

    monkeypatch.setattr(FleetSpec, "build", broken_build)
    result = ScenarioRunner().run(spec)
    assert result.stats.fleet_fallbacks == 1
    assert result.stats.cells_fleet == 0
    assert result.stats.cells_computed == FLEET_MIN_ROWS
    assert not result.failures
    assert _bytes(result) == _oracle(spec)


def test_ineligible_runners_keep_the_scalar_path(tmp_path):
    """Bounded and sidecar-checkpointed sweeps never batch."""
    spec = _spec(FLEET_MIN_ROWS)
    for runner in (ScenarioRunner(cell_timeout_s=60.0),
                   ScenarioRunner(journal=tmp_path / "ckpt.journal",
                                  checkpoint_every_steps=10)):
        assert runner.run(spec).stats.cells_fleet == 0


def test_rejected_policies_log_their_reason_once(caplog):
    """Each distinct policy the fleet rejects is logged once, with the
    reason, however many cells it has; the supported cells still batch
    and every cell still matches the oracle."""
    policies = {f"p{i}": _KINDS[i % 3](capacity_mah=30.0 + 20.0 * i)
                for i in range(FLEET_MIN_ROWS // 2)}
    policies["tagged"] = _TaggedCellPractice(capacity_mah=400.0)
    policies["throttled"] = _ThrottledDual(capacity_mah=60.0)
    spec = SweepSpec(policies=policies, traces={"video": _TRACE},
                     control_dts=(CONTROL_DT,), ambients_c=(25.0, 35.0),
                     max_duration_s=MAX_DURATION_S)
    with caplog.at_level(logging.INFO, logger="repro.sim.sweep"):
        result = ScenarioRunner().run(spec)
    assert result.stats.cells_fleet == FLEET_MIN_ROWS
    assert result.stats.cells_computed == FLEET_MIN_ROWS + 4
    messages = [record.getMessage() for record in caplog.records
                if "runs on the scalar engine" in record.getMessage()]
    assert messages == [
        "policy 'tagged' runs on the scalar engine: custom cell subclass",
        "policy 'throttled' runs on the scalar engine: policy overrides "
        "filter_demand (demand rewriting)",
    ]
    assert _bytes(result) == _oracle(spec)


def test_observed_sweeps_stay_scalar_and_export_the_counters():
    obs.configure(enabled=True)
    try:
        result = ScenarioRunner().run(_spec(FLEET_MIN_ROWS))
    finally:
        obs.disable()
    assert result.stats.cells_fleet == 0
    counters = result.telemetry.counters
    assert counters["sweep.cells_fleet"] == 0
    assert counters["sweep.fleet_fallbacks"] == 0
    assert counters["sweep.cells_computed"] == FLEET_MIN_ROWS


@pytest.fixture()
def service(tmp_path, monkeypatch):
    monkeypatch.delenv("CAPMAN_DIST_SECRET", raising=False)
    monkeypatch.delenv("CAPMAN_DIST_WORKERS", raising=False)
    svc = CapmanService(tmp_path / "state", cell_workers=1,
                        job_runners=1).start()
    yield svc
    svc.close()


def test_served_jobs_report_the_engine_that_ran_them(service):
    host, port = service.address
    base = f"http://{host}:{port}"
    capacities = tuple(30.0 + 5.0 * i for i in range(FLEET_MIN_ROWS))
    for grid, fleet_rows in ((small_grid(capacities=capacities),
                              FLEET_MIN_ROWS),
                             (small_grid(capacities=(31.0, 41.0, 51.0)), 0)):
        code, ack = api(base, "POST", "/jobs", body=grid)
        assert code == 201
        status = wait_for_job(base, ack["job_id"])
        assert status["state"] == "done"
        assert status["stats"]["cells_fleet"] == fleet_rows
        assert status["stats"]["fleet_fallbacks"] == 0


def test_served_four_policy_grid_runs_every_cell_on_the_fleet(service):
    """The paper's comparison grid -- Practice beside Dual, Heuristic
    and CAPMAN -- runs wholly on the fleet engine when served, and its
    results are byte-equal to a scalar run of the same grid."""
    host, port = service.address
    base = f"http://{host}:{port}"
    grid = {
        "policies": {
            "Practice": {"type": "practice", "capacity_mah": 400.0},
            "Dual": {"type": "dual", "capacity_mah": 200.0},
            "Heuristic": {"type": "heuristic", "capacity_mah": 200.0},
            "CAPMAN": {"type": "capman", "capacity_mah": 200.0},
        },
        "traces": {"V": {"workload": "video", "seed": 3,
                         "duration_s": 60.0}},
        "profiles": ["Nexus", "Honor"],
        "ambients_c": [25.0, 35.0],
        "max_duration_s": MAX_DURATION_S,
    }
    code, ack = api(base, "POST", "/jobs", body=grid)
    assert code == 201
    status = wait_for_job(base, ack["job_id"])
    assert status["state"] == "done"
    stats = status["stats"]
    assert stats["cells_total"] == FLEET_MIN_ROWS
    assert stats["cells_fleet"] == stats["cells_total"]
    assert stats["fleet_fallbacks"] == 0

    code, results = api(base, "GET", f"/jobs/{ack['job_id']}/results")
    assert code == 200
    served = [base64.b64decode(cell) for cell in results["cells"]]
    scalar = ScenarioRunner(executor=LocalProcessExecutor(1)).run(
        parse_spec(grid))
    assert scalar.stats.cells_fleet == 0
    assert served == _bytes(scalar)
