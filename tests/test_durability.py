"""Unit tests for the durability layer.

Covers the versioned state-dict discipline, checksummed checkpoints,
the write-ahead journal's torn-tail recovery, run budgets, cooperative
deadlines and the advisory file lock -- each in
isolation, before the integration tests exercise them through the
simulation harnesses.
"""

import os
import pickle
import subprocess
import sys
import time

import pytest

from repro.durability.budget import BudgetExceededError, RunBudget
from repro.durability.deadline import (
    DeadlineExceededError,
    clear_deadline,
    poll_deadline,
    set_deadline,
    thread_deadline,
)
from repro.durability.journal import (
    JournalError,
    RunJournal,
    decode_blob,
    encode_blob,
)
from repro.durability.lock import FileLock
from repro.durability.snapshot import (
    CheckpointError,
    Checkpointer,
    ChecksumError,
    SCHEMA_VERSION,
    SimCheckpoint,
)
from repro.durability.state import (
    StateMismatchError,
    StateVersionError,
    pack_state,
    unpack_state,
)


# ----------------------------------------------------------------------
# state.py
# ----------------------------------------------------------------------
class _Widget:
    pass


class _Gadget:
    pass


class TestPackedState:
    def test_round_trip(self):
        w = _Widget()
        state = pack_state(w, 3, {"x": 1.5, "y": [1, 2]})
        assert unpack_state(w, state, 3) == {"x": 1.5, "y": [1, 2]}

    def test_wrong_class_rejected(self):
        state = pack_state(_Widget(), 1, {})
        with pytest.raises(StateMismatchError):
            unpack_state(_Gadget(), state, 1)

    def test_wrong_version_rejected(self):
        state = pack_state(_Widget(), 1, {})
        with pytest.raises(StateVersionError):
            unpack_state(_Widget(), state, 2)

    def test_extra_keys_tolerated(self):
        """Subclasses extend a parent's payload with extra keys."""
        state = pack_state(_Widget(), 1, {"x": 1})
        state["subclass_extra"] = 99
        assert unpack_state(_Widget(), state, 1)["x"] == 1


# ----------------------------------------------------------------------
# snapshot.py
# ----------------------------------------------------------------------
class TestSimCheckpoint:
    def _ckpt(self):
        return SimCheckpoint.create("test", {"a": 1.25, "b": {"c": [1, 2]}})

    def test_create_verifies(self):
        self._ckpt().verify()

    def test_tamper_detected(self):
        ckpt = self._ckpt()
        ckpt.payload["a"] = 2.0
        with pytest.raises(ChecksumError):
            ckpt.verify()

    def test_bytes_round_trip(self):
        ckpt = self._ckpt()
        again = SimCheckpoint.from_bytes(ckpt.to_bytes())
        assert again == ckpt

    def test_bad_magic_rejected(self):
        with pytest.raises(CheckpointError):
            SimCheckpoint.from_bytes(b"NOTACKPT" + b"0" * 80)

    def test_truncated_body_rejected(self):
        data = self._ckpt().to_bytes()
        with pytest.raises(CheckpointError):
            SimCheckpoint.from_bytes(data[: len(data) - 7])

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "run.ckpt"
        ckpt = self._ckpt()
        ckpt.save(path)
        assert SimCheckpoint.load(path) == ckpt
        assert ckpt.schema_version == SCHEMA_VERSION

    def test_try_load_missing_is_none(self, tmp_path):
        assert SimCheckpoint.try_load(tmp_path / "absent.ckpt") is None

    def test_try_load_corrupt_is_none_and_deletes(self, tmp_path):
        path = tmp_path / "run.ckpt"
        ckpt = self._ckpt()
        ckpt.save(path)
        # Torn write: chop the tail off the file.
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        assert SimCheckpoint.try_load(path) is None
        assert not path.exists(), "corrupt checkpoint must be cleared"

    def test_save_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "run.ckpt"
        self._ckpt().save(path)
        assert [p.name for p in tmp_path.iterdir()] == ["run.ckpt"]


class TestCheckpointer:
    def test_cadence(self):
        ck = Checkpointer(every_steps=100)
        assert not ck.due(0)
        assert not ck.due(50)
        assert ck.due(100)
        assert ck.due(200)
        assert not Checkpointer(every_steps=0).due(100)

    def test_save_persists_and_counts(self, tmp_path):
        path = tmp_path / "run.ckpt"
        seen = []
        ck = Checkpointer(path, every_steps=10, sink=seen.append)
        ckpt = SimCheckpoint.create("test", {"v": 1})
        ck.save(ckpt)
        assert ck.latest == ckpt and ck.saves == 1
        assert SimCheckpoint.load(path) == ckpt
        assert seen == [ckpt]


# ----------------------------------------------------------------------
# journal.py
# ----------------------------------------------------------------------
class TestRunJournal:
    def test_append_replay_round_trip(self, tmp_path):
        path = tmp_path / "run.journal"
        with RunJournal(path) as journal:
            journal.append("start", {"n": 3})
            journal.append("commit", {"i": 0, "blob": encode_blob(b"\x00\xff")})
        records = RunJournal.replay(path)
        assert [r["type"] for r in records] == ["start", "commit"]
        assert [r["seq"] for r in records] == [0, 1]
        assert decode_blob(records[1]["data"]["blob"]) == b"\x00\xff"

    def test_torn_tail_truncated(self, tmp_path):
        path = tmp_path / "run.journal"
        with RunJournal(path) as journal:
            journal.append("start", {})
            journal.append("commit", {"i": 0})
        with path.open("ab") as fh:
            fh.write(b'{"seq":2,"type":"commit","data"')  # SIGKILL mid-write
        records = RunJournal.replay(path)
        assert [r["seq"] for r in records] == [0, 1]
        # Recovery truncated the torn bytes: a reopened journal appends
        # cleanly right after the last good record.
        journal = RunJournal(path)
        assert journal.next_seq == 2
        journal.append("commit", {"i": 1})
        journal.close()
        assert [r["seq"] for r in RunJournal.replay(path)] == [0, 1, 2]

    def test_corrupt_record_stops_replay(self, tmp_path):
        path = tmp_path / "run.journal"
        with RunJournal(path) as journal:
            journal.append("start", {})
            journal.append("commit", {"i": 0})
        # Flip a byte inside the *first* record: everything after the
        # corruption is untrusted, even if it parses.
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b'"start"', b'"stXrt"', 1))
        assert RunJournal.replay(path) == []

    def test_sequence_gap_detected(self, tmp_path):
        path = tmp_path / "run.journal"
        with RunJournal(path) as journal:
            journal.append("start", {})
        with RunJournal(path) as journal:
            journal.append("commit", {"i": 0})
        raw_lines = path.read_bytes().splitlines(keepends=True)
        # Drop the first record: the second's seq no longer chains.
        path.write_bytes(raw_lines[1])
        assert RunJournal.replay(path) == []

    def test_recovered_records_reported(self, tmp_path):
        path = tmp_path / "run.journal"
        with RunJournal(path) as journal:
            journal.append("start", {})
        with path.open("ab") as fh:
            fh.write(b"garbage-that-is-not-json\n")
        journal = RunJournal(path)
        assert journal.recovered_records == 1
        journal.close()

    def test_replay_missing_raises(self, tmp_path):
        with pytest.raises(JournalError):
            RunJournal.replay(tmp_path / "absent.journal")

    def test_append_after_close_raises(self, tmp_path):
        journal = RunJournal(tmp_path / "run.journal")
        journal.close()
        with pytest.raises(JournalError):
            journal.append("start", {})
        with pytest.raises(JournalError):
            journal.append_many([("start", {})])

    def test_append_many_matches_single_appends_byte_for_byte(
            self, tmp_path):
        records = [("start", {"n": 3})] + [
            ("commit", {"i": i, "blob": encode_blob(bytes([i]))})
            for i in range(3)]
        single, grouped = tmp_path / "single.journal", tmp_path / "group.journal"
        with RunJournal(single) as journal:
            seqs = [journal.append(rtype, data) for rtype, data in records]
        with RunJournal(grouped) as journal:
            assert journal.append_many([]) == []
            assert journal.append_many(records[:1]) == [0]
            assert journal.append_many(records[1:]) == [1, 2, 3]
            assert journal.next_seq == 4
        assert seqs == [0, 1, 2, 3]
        assert grouped.read_bytes() == single.read_bytes()

    def test_group_commit_torn_mid_write_keeps_whole_records(self, tmp_path):
        """A kill inside a group's write tears only that record: replay
        keeps every whole record before it, and the journal extends
        cleanly from there."""
        path = tmp_path / "run.journal"
        with RunJournal(path) as journal:
            journal.append_many([("commit", {"i": i}) for i in range(4)])
        raw = path.read_bytes()
        lines = raw.splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:2]) + lines[2][:len(lines[2]) // 2])
        assert [r["data"]["i"] for r in RunJournal.replay(path)] == [0, 1]
        with RunJournal(path) as journal:
            assert journal.append_many([("commit", {"i": 2})]) == [2]
        assert [r["seq"] for r in RunJournal.replay(path)] == [0, 1, 2]


# ----------------------------------------------------------------------
# budget.py
# ----------------------------------------------------------------------
class TestRunBudget:
    def test_step_budget(self):
        budget = RunBudget(max_steps=10)
        assert budget.exceeded(9) is None
        assert "step budget" in budget.exceeded(10)

    def test_wall_budget(self):
        budget = RunBudget(max_wall_s=0.01)
        assert budget.exceeded(0) is None or True  # may already be due
        time.sleep(0.02)
        assert "wall-clock" in budget.exceeded(0)

    def test_restart_rearms_wall_clock(self):
        budget = RunBudget(max_wall_s=0.05)
        time.sleep(0.06)
        assert budget.exceeded(0) is not None
        budget.restart()
        assert budget.exceeded(0) is None

    def test_unlimited(self):
        assert RunBudget().exceeded(10**9) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            RunBudget(max_wall_s=0.0)
        with pytest.raises(ValueError):
            RunBudget(max_steps=0)

    def test_error_carries_checkpoint(self):
        ckpt = SimCheckpoint.create("test", {})
        err = BudgetExceededError("over", ckpt)
        assert err.checkpoint is ckpt


# ----------------------------------------------------------------------
# deadline.py
# ----------------------------------------------------------------------
class TestDeadlines:
    def teardown_method(self):
        clear_deadline()

    def test_unarmed_poll_is_noop(self):
        poll_deadline()

    def test_expiry_raises_custom_type(self):
        class MyTimeout(DeadlineExceededError):
            pass

        set_deadline(0.0, "too slow", exc_type=MyTimeout)
        time.sleep(0.001)
        with pytest.raises(MyTimeout, match="too slow"):
            poll_deadline()
        poll_deadline()  # one-shot: consumed on raise

    def test_clear_disarms(self):
        set_deadline(0.0)
        clear_deadline()
        time.sleep(0.001)
        poll_deadline()

    def test_context_manager(self):
        with thread_deadline(60.0):
            poll_deadline()
        poll_deadline()


# ----------------------------------------------------------------------
# lock.py
# ----------------------------------------------------------------------
class TestFileLock:
    def test_acquire_release(self, tmp_path):
        lock = FileLock(tmp_path / "x.lock")
        assert not lock.held
        with lock:
            assert lock.held
        assert not lock.held

    def test_reentrant(self, tmp_path):
        lock = FileLock(tmp_path / "x.lock")
        with lock:
            with lock:
                assert lock.held
            assert lock.held
        assert not lock.held

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="POSIX only")
    def test_excludes_other_processes(self, tmp_path):
        """While held here, a child's non-blocking flock must fail."""
        path = tmp_path / "x.lock"
        probe = (
            "import fcntl, os, sys\n"
            "fd = os.open(sys.argv[1], os.O_RDWR | os.O_CREAT)\n"
            "try:\n"
            "    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)\n"
            "except OSError:\n"
            "    sys.exit(42)\n"
            "sys.exit(0)\n"
        )
        with FileLock(path):
            held = subprocess.run([sys.executable, "-c", probe, str(path)])
            assert held.returncode == 42, "child acquired a held lock"
        released = subprocess.run([sys.executable, "-c", probe, str(path)])
        assert released.returncode == 0
