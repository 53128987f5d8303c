"""Tests for RetryPolicy and its wiring into the sweep engine."""

import pytest

from repro import obs
from repro.sim.executors import ExecutionContext
from repro.sim.retry import DEFAULT_RETRY, RetryPolicy
from repro.sim.sweep import ScenarioRunner, SimStats


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    def test_allows_caps_total_attempts(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.allows(0)
        assert policy.allows(2)
        assert not policy.allows(3)

    def test_default_is_historic_behaviour(self):
        # One immediate retry, zero wait, and the runner's default.
        assert DEFAULT_RETRY.max_attempts == 2
        assert DEFAULT_RETRY.wait_s(1, "anything") == 0.0
        assert ScenarioRunner().retry == DEFAULT_RETRY == RetryPolicy(max_attempts=2)

    def test_wait_grows_exponentially_and_caps(self):
        policy = RetryPolicy(max_attempts=10, backoff_base_s=1.0,
                             backoff_factor=2.0, backoff_max_s=5.0)
        assert policy.wait_s(1) == 1.0
        assert policy.wait_s(2) == 2.0
        assert policy.wait_s(3) == 4.0
        assert policy.wait_s(4) == 5.0  # capped
        assert policy.wait_s(0) == 0.0  # nothing failed yet

    def test_jitter_is_deterministic_and_decorrelated(self):
        policy = RetryPolicy(max_attempts=5, backoff_base_s=1.0,
                             jitter=0.5, seed=7)
        a1 = policy.wait_s(1, token="cell-a")
        a2 = policy.wait_s(1, token="cell-a")
        b = policy.wait_s(1, token="cell-b")
        assert a1 == a2  # same (seed, token, attempt): same wait
        assert a1 != b  # different token: different wait
        assert 0.5 <= a1 <= 1.0  # full jitter downward only
        other_seed = RetryPolicy(max_attempts=5, backoff_base_s=1.0,
                                 jitter=0.5, seed=8)
        assert other_seed.wait_s(1, token="cell-a") != a1

    def test_sleep_uses_injected_sleeper_and_skips_zero(self):
        slept = []
        policy = RetryPolicy(max_attempts=3, backoff_base_s=0.25)
        wait = policy.sleep(1, token="x", sleeper=slept.append)
        assert wait == 0.25 and slept == [0.25]
        slept.clear()
        assert DEFAULT_RETRY.sleep(1, sleeper=slept.append) == 0.0
        assert slept == []  # zero wait never calls the sleeper


class TestRunnerWiring:
    def test_explicit_policy_wins(self):
        policy = RetryPolicy(max_attempts=7, backoff_base_s=0.5)
        runner = ScenarioRunner(retry=policy)
        assert runner.retry is policy

    def test_count_retry_updates_stats_and_obs(self):
        stats = SimStats()
        ctx = ExecutionContext(stats=stats)
        obs.configure(enabled=True)
        try:
            ctx.count_retry(0.75)
            ctx.count_retry(0.0)
            reg = obs.session().registry
            assert reg.counter("sweep.retries").value == 2
            assert reg.counter("sweep.backoff_wait_s").value == 0.75
        finally:
            obs.disable()
        assert stats.cell_retries == 2
        assert stats.backoff_wait_s == 0.75

    def test_count_retry_without_session_touches_stats_only(self):
        stats = SimStats()
        ctx = ExecutionContext(stats=stats)
        assert obs.session() is None
        ctx.count_retry(0.5)
        assert stats.cell_retries == 1
        assert stats.backoff_wait_s == 0.5
