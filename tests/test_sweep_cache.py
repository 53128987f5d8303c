"""Tests for FileLock/SweepCache under real multi-process and
multi-thread contention, torn writes and pack replacement."""

import multiprocessing
import os
import signal
import sys
import threading
import time

from repro.durability.lock import FileLock
from repro.sim.sweep import SweepCache


def _entry_files(directory):
    """Cache files other than the writer lock."""
    return sorted(path for path in directory.iterdir()
                  if path.name != ".lock")


# ----------------------------------------------------------------------
# Multi-process contention: FileLock / SweepCache
# ----------------------------------------------------------------------
def _hammer_put(directory, key, worker_id, rounds):
    cache = SweepCache(directory)
    for i in range(rounds):
        cache.put({key: {"worker": worker_id, "round": i}})


def _put_one(directory, key, value):
    SweepCache(directory).put({key: value})


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
        cache.put({"k": "original"})
        (pack,) = _entry_files(tmp_path / "c")
        good_bytes = pack.read_bytes()
        # Simulate a torn write reaching the final path: truncate the
        # pack mid-pickle.
        pack.write_bytes(good_bytes[: len(good_bytes) // 2])
        assert cache.get("k") is None  # miss, not an exception
        assert not pack.exists()  # torn pack quarantined
        cache.put({"k": "recomputed"})
        assert cache.get("k") == "recomputed"

    def test_torn_pack_index_is_a_miss_for_a_fresh_reader(self, tmp_path):
        SweepCache(tmp_path / "c").put({"a": 1, "b": 2})
        (pack,) = _entry_files(tmp_path / "c")
        pack.write_bytes(pack.read_bytes()[:20])  # inside the index
        cache = SweepCache(tmp_path / "c")
        assert cache.get("a") is None
        assert not pack.exists()
        assert len(cache) == 0

    def test_pack_replaced_under_a_stale_index_serves_the_new_value(
            self, tmp_path):
        reader = SweepCache(tmp_path / "c")
        writer = SweepCache(tmp_path / "c")
        writer.put({"a": "old", "b": "short"})
        assert reader.get("a") == "old"  # indexes the first pack
        # Same key set, so the same pack name; the entries move.
        writer.put({"a": "new" * 50, "b": "longer" * 10})
        assert len(_entry_files(tmp_path / "c")) == 1
        assert reader.get("b") == "longer" * 10
        assert reader.get("a") == "new" * 50

    def test_pack_from_another_process_found_on_next_lookup(self, tmp_path):
        directory = tmp_path / "c"
        cache = SweepCache(directory)
        assert cache.get("theirs") is None
        writer = multiprocessing.Process(
            target=_put_one, args=(str(directory), "theirs", [1, 2, 3]))
        writer.start()
        writer.join(timeout=30.0)
        assert writer.exitcode == 0
        assert cache.get("theirs") == [1, 2, 3]

    def test_legacy_pickle_files_are_read_and_counted(self, tmp_path):
        import pickle

        directory = tmp_path / "c"
        directory.mkdir()
        (directory / "old.pkl").write_bytes(pickle.dumps({"x": 1}))
        (directory / "torn.pkl").write_bytes(b"not a pickle")
        cache = SweepCache(directory)
        cache.put({"new": 2, "old": {"x": 1}})
        assert len(cache) == 3
        assert cache.get("old") == {"x": 1}
        assert cache.get("torn") is None
        assert not (directory / "torn.pkl").exists()
        assert len(cache) == 2

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
        cache.put({"k": "after-crash"})
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
                cache.put({key: _Probe((tid, i), monitor)})
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
