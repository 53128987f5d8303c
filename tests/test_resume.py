"""Crash-resume integration tests for the journalled sweep engine.

The headline test SIGKILLs a live sweep subprocess mid-grid -- the
same failure a preempted batch node or OOM kill delivers -- and then
resumes from the write-ahead journal in this process, asserting the
two durability guarantees end to end:

* zero committed cells are recomputed, and
* the resumed :class:`SweepResult` is byte-identical (per cell) to an
  uninterrupted run of the same spec.
"""

import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.durability.journal import (JournalError, RunJournal, encode_blob,
                                      journal_commit_counts)
from repro.sim.sweep import ScenarioRunner, cell_keys, code_salt

import resume_helper

_SRC = str(Path(repro.__file__).resolve().parents[1])
_TESTS = str(Path(__file__).resolve().parent)


def _child_env() -> dict:
    env = dict(os.environ)
    extra = os.pathsep.join([_SRC, _TESTS])
    current = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{extra}{os.pathsep}{current}" if current else extra
    return env


def _commit_count(journal: Path) -> int:
    try:
        text = journal.read_text(errors="replace")
    except FileNotFoundError:
        return 0
    return text.count('"type":"cell_commit"')


def _cell_bytes(result):
    return [pickle.dumps(r) for r in result.results]


@pytest.fixture(scope="module")
def reference():
    """The uninterrupted run every resumed run must reproduce."""
    return ScenarioRunner().run(resume_helper.build_spec())


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="POSIX only")
class TestKill9Resume:
    def test_sigkilled_sweep_resumes_without_recomputation(self, tmp_path,
                                                           reference):
        journal = tmp_path / "sweep.journal"
        child = subprocess.Popen(
            [sys.executable, "-c",
             "import sys, resume_helper; resume_helper.main(sys.argv[1])",
             str(journal)],
            env=_child_env())
        try:
            # Let at least one commit become durable, then kill -9.
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if _commit_count(journal) >= 1 or child.poll() is not None:
                    break
                time.sleep(0.02)
            assert _commit_count(journal) >= 1, "no commit before timeout"
        finally:
            child.kill()
            child.wait()

        committed = sum(1 for r in RunJournal.replay(journal)
                        if r["type"] == "cell_commit")
        total = len(resume_helper.build_spec())
        # The per-cell delay makes finishing before the kill impossible.
        assert 1 <= committed < total

        resumed = ScenarioRunner(journal=journal).resume()

        assert resumed.stats.cells_resumed == committed
        assert resumed.stats.cells_computed == total - committed
        assert not resumed.failures
        assert _cell_bytes(resumed) == _cell_bytes(reference)

        # The journal now holds every commit: a second resume is a
        # pure replay that computes nothing.
        replayed = ScenarioRunner(journal=journal).resume()
        assert replayed.stats.cells_resumed == total
        assert replayed.stats.cells_computed == 0
        assert _cell_bytes(replayed) == _cell_bytes(reference)


class TestJournalledRun:
    def test_journalled_run_matches_plain(self, tmp_path, reference):
        journal = tmp_path / "sweep.journal"
        spec = resume_helper.build_spec()
        result = ScenarioRunner(journal=journal).run(spec)
        assert _cell_bytes(result) == _cell_bytes(reference)
        types = [r["type"] for r in RunJournal.replay(journal)]
        assert types[0] == "sweep_start"
        assert types.count("cell_commit") == len(spec)

    def test_run_refuses_populated_journal(self, tmp_path):
        journal = tmp_path / "sweep.journal"
        spec = resume_helper.build_spec()
        ScenarioRunner(journal=journal).run(spec)
        with pytest.raises(JournalError, match="resume"):
            ScenarioRunner(journal=journal).run(spec)

    def test_torn_tail_recovered_on_resume(self, tmp_path, reference):
        journal = tmp_path / "sweep.journal"
        spec = resume_helper.build_spec()
        ScenarioRunner(journal=journal).run(spec)
        # Keep the header + the first two commits, then simulate a
        # write torn mid-record by a crash.
        kept, commits = [], 0
        for line in journal.read_bytes().splitlines(keepends=True):
            kept.append(line)
            if b'"type":"cell_commit"' in line:
                commits += 1
                if commits == 2:
                    break
        journal.write_bytes(b"".join(kept) + b'{"seq":99,"type":"cell_co')

        resumed = ScenarioRunner(journal=journal).resume()
        assert resumed.stats.cells_resumed == 2
        assert resumed.stats.cells_computed == len(spec) - 2
        assert _cell_bytes(resumed) == _cell_bytes(reference)

    def test_resume_without_journal_raises(self, tmp_path):
        with pytest.raises(JournalError):
            ScenarioRunner().resume()
        with pytest.raises(JournalError):
            ScenarioRunner().resume(tmp_path / "absent.journal")


class TestOldJournalFormat:
    """Journals written before the sweep engine lost its networked
    backend also carry ``lease_grant`` dispatch records; they must
    still resume."""

    def test_lease_grant_records_resume_exactly_once(self, tmp_path,
                                                     reference):
        spec = resume_helper.build_spec(delay_s=0.0)
        cells = spec.expand()
        salt = code_salt()
        keys = cell_keys(cells, salt)
        blobs = [pickle.dumps(r, protocol=4) for r in reference.results]
        journal = tmp_path / "old.journal"
        with RunJournal(journal) as log:
            log.append("sweep_start", {
                "spec": encode_blob(pickle.dumps(spec, protocol=4)),
                "salt": salt, "n_cells": len(spec), "kind": spec.kind})
            for cell in cells:
                log.append("cell_start", {"index": cell.index,
                                          "key": keys[cell.index],
                                          "label": cell.label})
            # Cell 0: granted and committed.  Cell 2: granted, never
            # committed.  Cell 3: only a duplicate (stolen) grant.
            log.append("lease_grant", {"index": 0, "lease": "l0",
                                       "worker": "w0", "duplicate": False})
            log.append("lease_grant", {"index": 2, "lease": "l2",
                                       "worker": "w1", "duplicate": False})
            log.append("lease_grant", {"index": 3, "lease": "l3",
                                       "worker": "w0", "duplicate": True})
            for index in (0, 1):
                log.append("cell_commit", {
                    "index": index, "key": keys[index],
                    "result": encode_blob(blobs[index])})

        resumed = ScenarioRunner(journal=journal).resume()
        assert resumed.stats.cells_resumed == 2
        assert resumed.stats.cells_computed == len(spec) - 2
        assert [pickle.dumps(r, protocol=4)
                for r in resumed.results[:2]] == blobs[:2]
        assert _cell_bytes(resumed) == _cell_bytes(reference)
        assert journal_commit_counts(journal) == {
            cell.index: 1 for cell in cells}
