"""Tests for the networked sweep cache and for FileLock/SweepCache
under real multi-process and multi-thread contention and torn writes."""

import multiprocessing
import os
import pickle
import signal
import sys
import threading
import time

import pytest

from repro.durability.lock import FileLock
from repro.sim.cache_server import CacheServer, NetworkSweepCache
from repro.sim.retry import RetryPolicy
from repro.sim.sweep import SweepCache


@pytest.fixture()
def server(tmp_path):
    srv = CacheServer(tmp_path / "served")
    srv.start()
    yield srv
    srv.stop()


def _client(server, tmp_path, **kwargs):
    kwargs.setdefault("rpc_timeout_s", 1.0)
    kwargs.setdefault("probe_interval_s", 0.05)
    kwargs.setdefault("retry", RetryPolicy(max_attempts=1))
    return NetworkSweepCache(server.address, tmp_path / "fallback", **kwargs)


class TestNetworkCache:
    def test_round_trip_and_cross_client_hits(self, server, tmp_path):
        writer = _client(server, tmp_path / "a")
        writer.put("key1", {"value": 42})
        reader = _client(server, tmp_path / "b")  # fresh fallback dir
        assert reader.get("key1") == {"value": 42}
        assert reader.get("missing") is None
        assert reader.stats.remote_hits == 1
        assert reader.stats.remote_misses == 1
        assert writer.stats.remote_puts == 1

    def test_is_a_sweep_cache(self, server, tmp_path):
        # Drop-in for any cache= argument: the isinstance gate in
        # ScenarioRunner must accept it.
        assert isinstance(_client(server, tmp_path), SweepCache)

    def test_partition_falls_back_and_reconciles_on_heal(
            self, server, tmp_path):
        cache = _client(server, tmp_path)
        server.partition()
        cache.put("k", "computed-during-partition")
        assert cache.partitioned
        assert cache.get("k") == "computed-during-partition"  # local
        assert cache.stats.fallback_puts == 1
        assert cache.stats.fallback_gets == 1
        server.heal()
        time.sleep(cache.probe_interval_s * 1.5)
        assert cache.flush()
        assert not cache.partitioned
        assert cache.stats.heals == 1
        assert cache.stats.reconciled_puts == 1
        # The reconciled entry now serves any other client remotely.
        other = _client(server, tmp_path / "other")
        assert other.get("k") == "computed-during-partition"

    def test_torn_reply_is_treated_as_partition_not_data(
            self, server, tmp_path):
        cache = _client(server, tmp_path)
        cache.put("k", [1, 2, 3])
        server.inject_torn_replies(1)
        # The torn frame fails its checksum; the client must fall back
        # (and still answer correctly from its local copy), not crash
        # or return garbage.
        assert cache.get("k") == [1, 2, 3]
        assert cache.stats.partitions_detected == 1
        assert server.stats.torn_replies == 1
        time.sleep(cache.probe_interval_s * 1.5)
        assert cache.flush()  # server is fine again: heals

    def test_server_never_serves_a_corrupt_entry(self, server, tmp_path):
        cache = _client(server, tmp_path)
        cache.put("k", "good")
        # Corrupt the entry at rest on the server (torn write survived
        # a crash, cosmic ray, ...): the next get must be a miss --
        # never an exception, never wrong bytes.
        entry = server.store._path("k")
        entry.write_bytes(b"\x80\x04 definitely not a pickle")
        fresh = _client(server, tmp_path / "fresh")
        assert fresh.get("k") is None
        assert not entry.exists()  # quarantined on read

    def test_unreachable_server_degrades_immediately(self, tmp_path):
        # A dead address: every op completes locally, no exception.
        dead = NetworkSweepCache(("127.0.0.1", 1), tmp_path / "f",
                                 rpc_timeout_s=0.2, probe_interval_s=0.05,
                                 retry=RetryPolicy(max_attempts=1))
        dead.put("k", "v")
        assert dead.get("k") == "v"
        assert dead.partitioned
        assert not dead.flush()  # still down: buffer is kept
        assert dead.stats.partitions_detected >= 1


class TestCacheBreaker:
    def test_threshold_tolerates_isolated_failures(self, server, tmp_path):
        cache = _client(server, tmp_path, failure_threshold=2)
        cache.put("k", "v")
        server.inject_torn_replies(1)
        assert cache.get("k") == "v"  # one failure: local fallback...
        assert not cache.partitioned  # ...but no trip yet
        assert cache.stats.partitions_detected == 0
        assert cache.get("k") == "v"  # server is fine: streak reset
        assert cache.stats.remote_hits == 1
        server.inject_torn_replies(2)
        assert cache.get("k") == "v"
        assert cache.get("k") == "v"
        assert cache.partitioned  # two consecutive failures trip it
        assert cache.stats.partitions_detected == 1

    def test_open_circuit_short_circuits_instead_of_timing_out(
            self, tmp_path):
        dead = NetworkSweepCache(("127.0.0.1", 1), tmp_path / "f",
                                 rpc_timeout_s=0.2, probe_interval_s=60.0,
                                 retry=RetryPolicy(max_attempts=1))
        dead.put("k", "v")  # trips the breaker
        assert dead.partitioned
        started = time.time()
        for i in range(20):
            dead.put(f"k{i}", i)
            assert dead.get(f"k{i}") == i
        # 40 ops against a dead server, all served locally without a
        # single connection attempt: far faster than even one timeout.
        assert time.time() - started < dead.rpc_timeout_s
        assert dead.stats.breaker_short_circuits >= 40
        assert dead.stats.partitions_detected == 1  # still one outage

    def test_half_open_probe_heals_and_reconciles(self, server, tmp_path):
        cache = _client(server, tmp_path)
        server.partition()
        cache.put("k", "during-outage")
        assert cache.partitioned
        server.heal()
        time.sleep(cache.probe_interval_s * 1.5)
        # The next op is admitted as the half-open probe, which pings,
        # replays the buffered put, and closes the circuit -- then the
        # op itself runs remotely.
        assert cache.get("k") == "during-outage"
        assert not cache.partitioned
        assert cache.stats.heals == 1
        assert cache.stats.reconciled_puts == 1
        assert cache.breaker.stats.probes >= 1

    def test_failed_probe_rearms_the_window(self, tmp_path):
        dead = NetworkSweepCache(("127.0.0.1", 1), tmp_path / "f",
                                 rpc_timeout_s=0.2, probe_interval_s=0.1,
                                 retry=RetryPolicy(max_attempts=1))
        dead.put("k", "v")
        time.sleep(0.15)
        assert dead.get("k") == "v"  # admitted as a probe; server dead
        assert dead.partitioned  # probe failed: open again
        assert dead.breaker.stats.probes >= 1
        assert dead.stats.heals == 0


# ----------------------------------------------------------------------
# Multi-process contention (satellite: FileLock / SweepCache)
# ----------------------------------------------------------------------
def _hammer_put(directory, key, worker_id, rounds):
    cache = SweepCache(directory)
    for i in range(rounds):
        cache.put(key, {"worker": worker_id, "round": i})


def _die_holding_lock(lock_path, held_event):
    lock = FileLock(lock_path)
    lock.acquire()
    held_event.set()
    os.kill(os.getpid(), signal.SIGKILL)  # die without releasing


class TestCacheContention:
    def test_concurrent_writers_same_key_never_corrupt(self, tmp_path):
        directory = tmp_path / "shared"
        key = "contested"
        workers = [
            multiprocessing.Process(target=_hammer_put,
                                    args=(str(directory), key, w, 25))
            for w in range(4)
        ]
        for proc in workers:
            proc.start()
        cache = SweepCache(directory)
        observed = 0
        corrupt = 0
        while any(proc.is_alive() for proc in workers):
            value = cache.get(key)
            if value is not None:
                observed += 1
                if not (isinstance(value, dict) and "worker" in value):
                    corrupt += 1
        for proc in workers:
            proc.join(timeout=30.0)
            assert proc.exitcode == 0
        assert corrupt == 0
        assert observed > 0  # reads genuinely overlapped the writes
        final = cache.get(key)
        assert isinstance(final, dict) and final["round"] == 24

    def test_torn_write_is_a_miss_not_poison(self, tmp_path):
        cache = SweepCache(tmp_path / "c")
        cache.put("k", "original")
        good_bytes = cache._path("k").read_bytes()
        # Simulate a torn write reaching the final path: truncate the
        # entry mid-pickle.
        cache._path("k").write_bytes(good_bytes[: len(good_bytes) // 2])
        assert cache.get("k") is None  # miss, not an exception
        assert not cache._path("k").exists()  # torn entry quarantined
        cache.put("k", "recomputed")
        assert cache.get("k") == "recomputed"

    def test_lock_holder_death_releases_the_lock(self, tmp_path):
        lock_path = tmp_path / "c" / ".lock"
        held = multiprocessing.Event()
        child = multiprocessing.Process(target=_die_holding_lock,
                                        args=(str(lock_path), held))
        child.start()
        assert held.wait(timeout=10.0)
        child.join(timeout=10.0)
        assert child.exitcode == -signal.SIGKILL
        # The kernel released the dead holder's flock: acquiring now
        # must succeed promptly instead of wedging the cache forever.
        survivor = FileLock(lock_path)
        survivor.acquire()
        assert survivor.held
        survivor.release()
        # And the cache built on it writes normally.
        cache = SweepCache(tmp_path / "c")
        cache.put("k", "after-crash")
        assert cache.get("k") == "after-crash"


# ----------------------------------------------------------------------
# Thread contention: one SweepCache (and so one FileLock) shared by the
# service's job-runner threads
# ----------------------------------------------------------------------
class _Monitor:
    """Counts how many threads are inside a cache write at once."""

    def __init__(self):
        self._lock = threading.Lock()
        self.inside = 0
        self.overlaps = 0

    def enter(self):
        with self._lock:
            self.inside += 1
            self.overlaps += self.inside > 1

    def leave(self):
        with self._lock:
            self.inside -= 1


class _Probe:
    """A cached value whose pickling -- done by ``SweepCache.put``
    under the cache lock -- reports to a monitor and lingers, so two
    threads inside the lock at once are seen as an overlap."""

    def __init__(self, tag, monitor=None):
        self.tag = tag
        self.monitor = monitor

    def __getstate__(self):
        self.monitor.enter()
        time.sleep(0.0005)
        self.monitor.leave()
        return {"tag": self.tag}

    def __setstate__(self, state):
        self.tag, self.monitor = state["tag"], None

    def __eq__(self, other):
        return isinstance(other, _Probe) and other.tag == self.tag


def _hammer_threads(cache, monitor, n_threads, rounds):
    """Put + get from ``n_threads`` threads at a tiny switch interval.

    Returns ``(errors, stuck)``: exceptions raised in any thread, and
    threads still running after the join timeout (a leaked flock
    wedges them).
    """
    errors = []

    def work(tid):
        try:
            for i in range(rounds):
                key = f"t{tid}-{i % 4}"
                cache.put(key, _Probe((tid, i), monitor))
                got = cache.get(key)
                if got != _Probe((tid, i)):
                    errors.append(AssertionError(f"{key}: read {got!r}"))
        except Exception as exc:  # noqa: BLE001 - collected, asserted
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(t,), daemon=True)
               for t in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    return errors, [t for t in threads if t.is_alive()]


class TestThreadContention:
    def test_one_cache_hammered_from_four_threads(self, tmp_path):
        cache = SweepCache(tmp_path / "shared")
        monitor = _Monitor()
        errors, stuck = _hammer_threads(cache, monitor, n_threads=4,
                                        rounds=200)
        assert not stuck, f"{len(stuck)} threads wedged on the cache lock"
        assert not errors, errors[:3]
        assert monitor.overlaps == 0, "two threads wrote under one lock"
        assert not cache.lock.held
        for tid in range(4):
            assert cache.get(f"t{tid}-3") == _Probe((tid, 199))
