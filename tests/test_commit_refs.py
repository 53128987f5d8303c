"""Run-journal commits point into durable packs instead of carrying bytes.

A ``cell_commit`` record holds ``pack`` (relative to the journal's
directory), ``offset``, ``length`` and the ``sha256`` of the entry; the
pack -- the cache's, or one under ``<journal>.d/`` -- is fsync'd before
the record is appended.  These tests pin the crash window between the
two, the legacy inline form, damage to a referenced entry, and where
results that carry obs telemetry go.
"""

import dataclasses
import hashlib
import pickle
import re
from pathlib import Path

import pytest

from repro import obs
from repro.durability.journal import (JournalError, RunJournal, encode_blob,
                                      journal_commit_counts)
from repro.sim.sweep import ScenarioRunner, SweepCache, cell_keys, code_salt

import resume_helper


@pytest.fixture(scope="module")
def spec():
    return resume_helper.build_spec(delay_s=0.0)


@pytest.fixture(scope="module")
def reference(spec):
    """Each cell's pickle from an uninterrupted, unjournalled run."""
    return [pickle.dumps(r, protocol=4)
            for r in ScenarioRunner().run(spec).results]


def _pickles(result):
    return [pickle.dumps(r, protocol=4) for r in result.results]


def _commits(journal):
    return {r["data"]["index"]: r["data"] for r in RunJournal.replay(journal)
            if r["type"] == "cell_commit"}


class _Killed(BaseException):
    """Stands in for a SIGKILL: nothing in the runner contains it."""


@pytest.mark.parametrize("cached", [False, True])
def test_kill_between_pack_and_commit_recomputes_those_cells(
        tmp_path, monkeypatch, spec, reference, cached):
    """The pack of cell 2 is durable but its commit never lands: resume
    recomputes cells 2 and 3 -- even though cell 2's entry is in the
    cache -- and every cell ends with exactly one commit."""
    journal = tmp_path / "run.journal"
    cache = tmp_path / "cache" if cached else None
    append_many = RunJournal.append_many

    def dies_at_cell_2(self, records):
        records = list(records)
        if any(rtype == "cell_commit" and data["index"] == 2
               for rtype, data in records):
            raise _Killed
        return append_many(self, records)

    monkeypatch.setattr(RunJournal, "append_many", dies_at_cell_2)
    with pytest.raises(_Killed):
        ScenarioRunner(journal=journal, cache=cache).run(spec)
    monkeypatch.undo()

    assert journal_commit_counts(journal) == {0: 1, 1: 1}
    key = cell_keys(spec.expand(), code_salt())[2]
    if cached:
        assert SweepCache(cache).entry(key) == reference[2]
    else:
        packs = list((tmp_path / "run.journal.d").glob("*.pack"))
        assert len(packs) == 3  # cells 0 and 1, and cell 2's orphan

    resumed = ScenarioRunner(journal=journal, cache=cache).resume()
    assert resumed.stats.cells_resumed == 2
    assert resumed.stats.cells_computed == 2
    assert resumed.stats.cache_hits == 0
    assert journal_commit_counts(journal) == {i: 1 for i in range(len(spec))}
    assert _pickles(resumed) == reference


def test_inline_result_commits_still_resume(tmp_path, spec, reference):
    """A journal written the old way -- its own ``sweep_start`` append,
    a ``cell_start`` group, base64 ``result`` commits -- resumes
    byte-identically, and a later resume replays both forms."""
    cells = spec.expand()
    salt = code_salt()
    keys = cell_keys(cells, salt)
    journal = tmp_path / "old.journal"
    with RunJournal(journal) as log:
        log.append("sweep_start", {
            "spec": encode_blob(pickle.dumps(spec, protocol=4)),
            "salt": salt, "n_cells": len(spec), "kind": spec.kind})
        log.append_many(("cell_start", {"index": cell.index,
                                        "key": keys[cell.index],
                                        "label": cell.label})
                        for cell in cells)
        log.append_many(("cell_commit", {"index": index, "key": keys[index],
                                         "result": encode_blob(
                                             reference[index])})
                        for index in (0, 1))

    resumed = ScenarioRunner(journal=journal).resume()
    assert resumed.stats.cells_resumed == 2
    assert resumed.stats.cells_computed == len(spec) - 2
    assert _pickles(resumed) == reference
    commits = _commits(journal)
    assert [("result" in commits[i]) for i in range(len(spec))] == \
        [True, True, False, False]

    replayed = ScenarioRunner(journal=journal).resume()
    assert replayed.stats.cells_resumed == len(spec)
    assert replayed.stats.cells_computed == 0
    assert _pickles(replayed) == reference
    assert journal_commit_counts(journal) == {i: 1 for i in range(len(spec))}


def _delete(pack, offset, length):
    pack.unlink()


def _truncate(pack, offset, length):
    with open(pack, "r+b") as fh:
        fh.truncate(offset + length - 1)


def _rewrite(pack, offset, length):
    data = bytearray(pack.read_bytes())
    data[offset + length // 2] ^= 0xFF
    pack.write_bytes(bytes(data))


@pytest.mark.parametrize("damage", [_delete, _truncate, _rewrite])
@pytest.mark.parametrize("cached", [False, True])
def test_a_damaged_referenced_entry_raises(tmp_path, spec, damage, cached):
    """Recomputing would commit the cell twice, so resume refuses,
    naming the pack and the cell, and appends nothing."""
    journal = tmp_path / "run.journal"
    cache = tmp_path / "cache" if cached else None
    ScenarioRunner(journal=journal, cache=cache).run(spec)
    commit = _commits(journal)[1]
    pack = journal.parent / commit["pack"]
    damage(pack, commit["offset"], commit["length"])
    before = journal.read_bytes()

    pattern = rf"cell 1\b.*{re.escape(pack.name)}"
    with pytest.raises(JournalError, match=pattern):
        ScenarioRunner(journal=journal, cache=cache).resume()
    assert journal.read_bytes() == before


def test_obs_telemetry_stays_in_the_journal_sidecar(tmp_path, spec):
    """An observed run's commits keep their telemetry in a pack under
    ``<journal>.d/``; the cache gets the results without it, and a
    resume replays the observed pickles exactly."""
    journal = tmp_path / "run.journal"
    cache_dir = tmp_path / "cache"
    obs.configure(enabled=True)
    try:
        observed = ScenarioRunner(journal=journal, cache=cache_dir).run(spec)
    finally:
        obs.disable()
    assert all(r.telemetry is not None for r in observed.results)

    keys = cell_keys(spec.expand(), code_salt())
    cache = SweepCache(cache_dir)
    for index, commit in _commits(journal).items():
        assert Path(commit["pack"]).parts[0] == "run.journal.d"
        pack = (journal.parent / commit["pack"]).read_bytes()
        blob = pack[commit["offset"]:commit["offset"] + commit["length"]]
        assert hashlib.sha256(blob).hexdigest() == commit["sha256"]
        assert blob == pickle.dumps(observed.results[index], protocol=4)
        stripped = dataclasses.replace(observed.results[index],
                                       telemetry=None)
        assert cache.entry(keys[index]) == pickle.dumps(stripped, protocol=4)

    resumed = ScenarioRunner(journal=journal, cache=cache_dir).resume()
    assert resumed.stats.cells_resumed == len(spec)
    assert _pickles(resumed) == _pickles(observed)
