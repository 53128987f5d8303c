"""Tests for the parallel scenario-sweep engine."""

import hashlib
import os
import pickle
import signal
import threading
import time

import pytest

from repro.battery.aging import AgingModel
from repro.capman.baselines import DualPolicy, PracticePolicy
from repro.capman.controller import CapmanPolicy
from repro.device.profiles import HONOR, NEXUS
from repro.sim.daily import MultiDayResult
from repro.sim.sweep import (
    CellFailure,
    CellTimeoutError,
    ScenarioRunner,
    SweepCache,
    SweepSpec,
    _canonical,
    cell_key,
    cell_keys,
    code_salt,
)
from repro.workload.generators import VideoWorkload
from repro.workload.traces import record_trace


class RaisingPolicy(DualPolicy):
    """A policy whose cell deterministically raises inside the simulator."""

    def build_pack(self):
        raise RuntimeError("synthetic cell failure")


class WorkerKillerPolicy(DualPolicy):
    """A policy that kills its worker process outright (OOM-kill stand-in).

    Only safe under process fan-out -- running it serially would kill
    the test process itself.
    """

    def build_pack(self):
        os.kill(os.getpid(), signal.SIGKILL)


class SlowPolicy(DualPolicy):
    """A policy that hangs long enough to blow a short per-cell timeout."""

    def build_pack(self):
        time.sleep(30.0)
        return super().build_pack()


@pytest.fixture(scope="module")
def trace():
    return record_trace(VideoWorkload(seed=5), 120.0)


def _spec(trace, capacity=40.0, **kwargs):
    defaults = dict(
        policies={
            "Dual": DualPolicy(capacity_mah=capacity),
            "Practice": PracticePolicy(capacity_mah=2 * capacity),
        },
        traces={"Video": trace},
        max_duration_s=900.0,
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


def _cell_bytes(result):
    return [pickle.dumps(r) for r in result.results]


class TestSpec:
    def test_expand_is_deterministic_and_ordered(self, trace):
        spec = _spec(trace, control_dts=(1.0, 2.0), ambients_c=(20.0, 30.0))
        cells_a = spec.expand()
        cells_b = spec.expand()
        assert [c.label for c in cells_a] == [c.label for c in cells_b]
        assert [c.index for c in cells_a] == list(range(len(spec)))
        assert len(cells_a) == 2 * 1 * 1 * 2 * 2

    def test_rejects_empty_axes(self, trace):
        with pytest.raises(ValueError):
            SweepSpec(policies={}, traces={"Video": trace})

    def test_rejects_unknown_kind(self, trace):
        with pytest.raises(ValueError):
            _spec(trace, kind="nope")

    def test_keys_distinct_per_cell(self, trace):
        spec = _spec(trace, control_dts=(1.0, 2.0))
        keys = {cell_key(c, salt="s") for c in spec.expand()}
        assert len(keys) == len(spec)

    def test_batched_keys_equal_per_cell_keys(self, trace):
        """Shared axis objects, equal-but-distinct twins and daily cells
        with extra arguments all hash as they do one cell at a time."""
        twin = record_trace(VideoWorkload(seed=5), 120.0)
        discharge = _spec(
            trace,
            policies={"Dual": DualPolicy(capacity_mah=40.0),
                      "Dual-twin": DualPolicy(capacity_mah=40.0),
                      "Practice": PracticePolicy(capacity_mah=80.0),
                      "CAPMAN": CapmanPolicy(capacity_mah=40.0)},
            traces={"Video": trace, "Video-twin": twin},
            profiles={"Nexus": NEXUS, "Honor": HONOR},
            control_dts=(1.0, 2.0), ambients_c=(25.0, 35.0))
        daily = _spec(trace, kind="daily", extra={"n_days": 2})
        cells = discharge.expand() + daily.expand()
        assert cell_keys(cells, salt="s") == [
            cell_key(c, salt="s") for c in cells]
        assert cell_keys(cells) == [cell_key(c) for c in cells]

    def test_keys_pinned_to_canonical_tuple_repr(self, trace):
        """Keys and job ids equal the hash of the canonical 10-tuple's
        ``repr``, so cache entries, WAL ``cell_start`` keys and job ids
        survive a change to how that ``repr`` is assembled."""
        from repro.service import job_id_for

        def reference_key(cell, salt):
            payload = (salt, cell.kind, cell.control_dt, cell.ambient_c,
                       cell.max_duration_s, cell.record_every,
                       _canonical(cell.policy), _canonical(cell.trace),
                       _canonical(cell.profile),
                       _canonical(dict(cell.extra)))
            return hashlib.sha256(repr(payload).encode()).hexdigest()

        def reference_job_id(spec, salt):
            digest = hashlib.sha256(spec.kind.encode())
            for key in sorted(reference_key(c, salt) for c in spec.expand()):
                digest.update(key.encode())
            return digest.hexdigest()[:32]

        twin = record_trace(VideoWorkload(seed=5), 120.0)
        shared = DualPolicy(capacity_mah=40.0)
        discharge = _spec(
            trace,
            policies={"Dual": shared, "Dual-again": shared,
                      "Dual-twin": DualPolicy(capacity_mah=40.0),
                      "Practice": PracticePolicy(capacity_mah=80.0),
                      "CAPMAN": CapmanPolicy(capacity_mah=40.0)},
            traces={"Video": trace, "Video-twin": twin},
            profiles={"Nexus": NEXUS, "Honor": HONOR},
            control_dts=(1.0, 2.0), ambients_c=(25.0, 35.0),
            record_every=3)
        daily = _spec(trace, kind="daily", max_duration_s=6 * 3600.0,
                      extra={"n_days": 2,
                             "aging": AgingModel(rate_stress_weight=2.0)})
        cells = discharge.expand() + daily.expand()
        assert any(c.kind == "daily" and c.extra for c in cells)
        for salt in ("s", code_salt()):
            assert cell_keys(cells, salt) == [reference_key(c, salt)
                                              for c in cells]
            for spec in (discharge, daily):
                assert job_id_for(spec, salt) == reference_job_id(spec, salt)

    def test_batched_keys_see_mutation_between_calls(self, trace):
        policy = DualPolicy(capacity_mah=40.0)
        cells = _spec(trace, policies={"Dual": policy}).expand()
        before = cell_keys(cells, salt="s")
        policy.capacity_mah = 50.0
        after = cell_keys(cells, salt="s")
        assert before != after
        assert after == [cell_key(c, salt="s") for c in cells]


class TestParallelEqualsSerial:
    @pytest.mark.parametrize("workers", [2, os.cpu_count() or 1])
    def test_results_identical_to_serial(self, trace, workers):
        spec = _spec(trace)
        serial = ScenarioRunner(workers=1).run(spec)
        parallel = ScenarioRunner(workers=workers).run(spec)
        assert _cell_bytes(serial) == _cell_bytes(parallel)
        assert [c.label for c in serial.cells] == [c.label for c in parallel.cells]

    def test_serial_repeat_identical(self, trace):
        spec = _spec(trace)
        a = ScenarioRunner(workers=1).run(spec)
        b = ScenarioRunner(workers=1).run(spec)
        assert _cell_bytes(a) == _cell_bytes(b)

    def test_policy_template_not_mutated(self, trace):
        spec = _spec(trace)
        before = pickle.dumps(spec.policies["Dual"])
        ScenarioRunner(workers=1).run(spec)
        assert pickle.dumps(spec.policies["Dual"]) == before


class TestCache:
    def test_hit_on_identical_spec(self, trace, tmp_path):
        spec = _spec(trace)
        cold = ScenarioRunner(workers=1, cache=tmp_path).run(spec)
        warm = ScenarioRunner(workers=1, cache=tmp_path).run(spec)
        assert cold.stats.cache_hits == 0
        assert cold.stats.cache_misses == len(spec)
        assert warm.stats.cache_hits == len(spec)
        assert warm.stats.cells_computed == 0
        assert _cell_bytes(cold) == _cell_bytes(warm)

    def test_miss_on_changed_policy_parameter(self, trace, tmp_path):
        ScenarioRunner(workers=1, cache=tmp_path).run(_spec(trace))
        changed = _spec(trace, capacity=44.0)
        rerun = ScenarioRunner(workers=1, cache=tmp_path).run(changed)
        assert rerun.stats.cache_hits == 0
        assert rerun.stats.cache_misses == len(changed)

    def test_miss_on_changed_code_salt(self, trace, tmp_path):
        spec = _spec(trace)
        ScenarioRunner(workers=1, cache=tmp_path, salt="v1").run(spec)
        rerun = ScenarioRunner(workers=1, cache=tmp_path, salt="v2").run(spec)
        assert rerun.stats.cache_hits == 0

    def test_corrupted_entry_recovers(self, trace, tmp_path):
        spec = _spec(trace)
        good = ScenarioRunner(workers=1, cache=tmp_path).run(spec)
        # Corrupt every cache entry on disk.
        entries = list(tmp_path.glob("*.pkl"))
        assert entries
        for path in entries:
            path.write_bytes(b"not a pickle")
        recovered = ScenarioRunner(workers=1, cache=tmp_path).run(spec)
        assert recovered.stats.cache_hits == 0
        assert recovered.stats.cache_misses == len(spec)
        assert _cell_bytes(recovered) == _cell_bytes(good)
        # And the cache is healthy again afterwards.
        warm = ScenarioRunner(workers=1, cache=tmp_path).run(spec)
        assert warm.stats.cache_hits == len(spec)

    def test_cache_object_roundtrip(self, tmp_path):
        cache = SweepCache(tmp_path)
        assert cache.get("missing") is None
        cache.put("k", {"x": 1})
        assert cache.get("k") == {"x": 1}
        assert len(cache) == 1


class TestStats:
    def test_throughput_accounting(self, trace):
        spec = _spec(trace)
        out = ScenarioRunner(workers=1).run(spec)
        stats = out.stats
        assert stats.cells_total == len(spec) == stats.cells_computed
        assert stats.steps_total > 0
        assert stats.steps_per_sec > 0
        assert stats.total_wall_s > 0
        assert stats.compute_wall_s > 0
        d = stats.as_dict()
        assert d["steps_total"] == stats.steps_total
        assert "steps_per_sec" in d

    def test_results_have_deterministic_wall_time(self, trace):
        out = ScenarioRunner(workers=1).run(_spec(trace))
        assert all(r.wall_time_s == 0.0 for r in out.results)
        assert all(r.step_count > 0 for r in out.results)


class TestLookup:
    def test_get_and_by_policy(self, trace):
        out = ScenarioRunner(workers=1).run(_spec(trace))
        dual = out.get(policy="Dual")
        assert dual.policy_name == "Dual"
        by = out.by_policy(trace="Video")
        assert set(by) == {"Dual", "Practice"}
        with pytest.raises(KeyError):
            out.get(policy="nope")
        with pytest.raises(KeyError):
            out.get(bogus_axis="x")

    def test_get_rejects_ambiguous(self, trace):
        out = ScenarioRunner(workers=1).run(_spec(trace))
        with pytest.raises(KeyError):
            out.get(trace="Video")  # two policies match


class TestFailureContainment:
    """One broken scenario must never abort (or poison) the grid."""

    def _mixed_spec(self, trace, bad_policy, capacity=40.0):
        return SweepSpec(
            policies={
                "Good": DualPolicy(capacity_mah=capacity),
                "Bad": bad_policy,
                "AlsoGood": PracticePolicy(capacity_mah=2 * capacity),
            },
            traces={"Video": trace},
            max_duration_s=900.0,
        )

    def test_raising_cell_reported_not_raised(self, trace):
        spec = self._mixed_spec(trace, RaisingPolicy(capacity_mah=40.0))
        out = ScenarioRunner(workers=1).run(spec)
        assert out.stats.cells_failed == 1
        failures = out.failures
        assert len(failures) == 1
        cell, failure = failures[0]
        assert cell.policy_key == "Bad"
        assert failure.error_type == "RuntimeError"
        assert "synthetic cell failure" in failure.message
        assert "build_pack" in failure.traceback
        assert str(failure).startswith(cell.label)
        # The healthy cells produced real results.
        assert len(out.succeeded) == 2
        assert all(r.service_time_s > 0 for _, r in out.succeeded)

    def test_raising_cell_matches_healthy_serial_results(self, trace):
        spec = self._mixed_spec(trace, RaisingPolicy(capacity_mah=40.0))
        healthy = SweepSpec(
            policies={"Good": DualPolicy(capacity_mah=40.0)},
            traces={"Video": trace}, max_duration_s=900.0)
        mixed = ScenarioRunner(workers=1).run(spec)
        alone = ScenarioRunner(workers=1).run(healthy)
        assert (pickle.dumps(mixed.get(policy="Good"))
                == pickle.dumps(alone.get(policy="Good")))

    def test_raising_cell_parallel_identical_to_serial(self, trace):
        spec = self._mixed_spec(trace, RaisingPolicy(capacity_mah=40.0))
        serial = ScenarioRunner(workers=1).run(spec)
        parallel = ScenarioRunner(workers=2).run(spec)
        assert _cell_bytes(serial) == _cell_bytes(parallel)

    def test_killed_worker_contained_and_healthy_cells_survive(self, trace):
        spec = self._mixed_spec(trace, WorkerKillerPolicy(capacity_mah=40.0))
        out = ScenarioRunner(workers=2).run(spec)
        assert out.stats.cells_failed == 1
        [(cell, failure)] = out.failures
        assert cell.policy_key == "Bad"
        assert failure.attempts == 2       # initial try + 1 retry
        assert out.stats.cell_retries >= 1
        # Healthy cells completed with valid, byte-stable results.
        healthy = SweepSpec(
            policies={"Good": DualPolicy(capacity_mah=40.0),
                      "AlsoGood": PracticePolicy(capacity_mah=80.0)},
            traces={"Video": trace}, max_duration_s=900.0)
        alone = ScenarioRunner(workers=1).run(healthy)
        assert (pickle.dumps(out.get(policy="Good"))
                == pickle.dumps(alone.get(policy="Good")))
        assert (pickle.dumps(out.get(policy="AlsoGood"))
                == pickle.dumps(alone.get(policy="AlsoGood")))

    def test_cell_timeout_reported(self, trace):
        spec = self._mixed_spec(trace, SlowPolicy(capacity_mah=40.0))
        started = time.monotonic()
        out = ScenarioRunner(workers=1, cell_timeout_s=1.0).run(spec)
        # The hang sits before any poll_deadline(), so only SIGALRM can cut it.
        assert time.monotonic() - started < 10.0
        [(cell, failure)] = out.failures
        assert cell.policy_key == "Bad"
        assert failure.error_type == "CellTimeoutError"
        assert len(out.succeeded) == 2

    def test_failures_never_cached(self, trace, tmp_path):
        spec = self._mixed_spec(trace, RaisingPolicy(capacity_mah=40.0))
        first = ScenarioRunner(workers=1, cache=tmp_path).run(spec)
        assert first.stats.cells_failed == 1
        second = ScenarioRunner(workers=1, cache=tmp_path).run(spec)
        # Healthy cells hit; the failed cell is recomputed every run.
        assert second.stats.cache_hits == 2
        assert second.stats.cache_misses == 1
        assert second.stats.cells_failed == 1

    def test_non_positive_cell_timeout_rejected(self):
        for timeout_s in (0, -1):
            with pytest.raises(ValueError, match="cell_timeout_s"):
                ScenarioRunner(cell_timeout_s=timeout_s)

    def test_failure_str_and_outcome_split(self, trace):
        spec = self._mixed_spec(trace, RaisingPolicy(capacity_mah=40.0))
        out = ScenarioRunner(workers=1).run(spec)
        bad = out.get(policy="Bad")
        assert isinstance(bad, CellFailure)
        assert "RuntimeError" in str(bad)


class TestDailyKind:
    def test_daily_cells_run_and_cache(self, trace, tmp_path):
        spec = SweepSpec(
            policies={"Dual": DualPolicy(capacity_mah=60.0)},
            traces={"Video": trace},
            kind="daily",
            max_duration_s=6 * 3600.0,
            extra={"n_days": 2, "aging": AgingModel(rate_stress_weight=2.0)},
        )
        cold = ScenarioRunner(workers=1, cache=tmp_path).run(spec)
        res = cold.get(policy="Dual")
        assert isinstance(res, MultiDayResult)
        assert len(res.days) == 2
        assert res.step_count > 0 and res.wall_time_s == 0.0
        warm = ScenarioRunner(workers=1, cache=tmp_path).run(spec)
        assert warm.stats.cache_hits == 1
        assert pickle.dumps(warm.results[0]) == pickle.dumps(cold.results[0])


class TestProgress:
    """The thread-safe mid-run progress snapshot (service poller API)."""

    def test_completed_run_reports_every_cell_done(self, trace):
        runner = ScenarioRunner(workers=1)
        assert runner.progress().total == 0  # empty before any run
        runner.run(_spec(trace))
        progress = runner.progress()
        assert progress.finished
        assert progress.total == progress.done == 2
        assert progress.queued == progress.running == progress.failed == 0
        assert set(progress.cells.values()) == {"done"}
        assert set(progress.labels) == set(progress.cells)

    def test_snapshot_is_pollable_from_another_thread_mid_run(self, trace):
        from repro.testing import SlowDualPolicy

        spec = SweepSpec(
            policies={f"S{i}": SlowDualPolicy(capacity_mah=30.0 + i,
                                              delay_s=0.5)
                      for i in range(2)},
            traces={"Video": trace},
            max_duration_s=900.0,
        )
        runner = ScenarioRunner(workers=1)
        box = {}
        thread = threading.Thread(target=lambda: box.update(
            result=runner.run(spec)))
        thread.start()
        try:
            # Wait for the grid to expand, then catch it in flight:
            # with two 0.5 s cells the window is wide.
            deadline = time.monotonic() + 30.0
            saw_running = False
            while time.monotonic() < deadline:
                progress = runner.progress()
                if progress.total == 2 and not progress.finished:
                    counted = (progress.queued + progress.running
                               + progress.done + progress.failed)
                    assert counted == progress.total
                    saw_running = saw_running or progress.running >= 1
                if progress.total == 2 and progress.finished:
                    break
                time.sleep(0.005)
            assert saw_running, "never observed a cell in 'running'"
        finally:
            thread.join(timeout=60.0)
        assert not thread.is_alive()
        assert runner.progress().finished
        assert len(box["result"].results) == 2

    def test_cache_hits_and_failures_are_distinct_states(self, trace,
                                                         tmp_path):
        spec = SweepSpec(
            policies={"Dual": DualPolicy(capacity_mah=40.0),
                      "Bad": RaisingPolicy(capacity_mah=40.0)},
            traces={"Video": trace},
            max_duration_s=900.0,
        )
        runner = ScenarioRunner(workers=1, cache=tmp_path)
        runner.run(spec)
        first = runner.progress()
        assert first.done == 1 and first.failed == 1
        assert sorted(first.cells.values()) == ["done", "failed"]

        again = ScenarioRunner(workers=1, cache=tmp_path)
        again.run(spec)
        second = again.progress()
        # The good cell is a cache hit; the failure was never cached.
        assert second.cells[first_index_of(second, "cached")] == "cached"
        assert sorted(second.cells.values()) == ["cached", "failed"]
        assert second.done == 1 and second.failed == 1

    def test_as_dict_is_json_shaped(self, trace):
        runner = ScenarioRunner(workers=1)
        runner.run(_spec(trace))
        payload = runner.progress().as_dict()
        assert payload["finished"] is True
        assert payload["cells"] == {"0": "done", "1": "done"}
        import json

        json.dumps(payload)  # must be serialisable as-is


def first_index_of(progress, state):
    """The lowest cell index currently in ``state``."""
    return min(i for i, s in progress.cells.items() if s == state)
