"""A served grid's results are encoded once and held as bytes.

The service pickles each computed outcome once (protocol 4) when it
commits; the run journal's ``cell_commit`` record, the result cache
entry and the ``GET /results`` body all carry those bytes, and a
finished job holds them instead of the decoded results.  The journal
JSON-encodes each record once, the results body is joined rather than
dumped, and a job's cell keys are hashed once, on submit.  These tests
pin every one of those encodings to the bytes the straightforward
formulas give, and the memory a finished job keeps to the size of its
pickles.
"""

from __future__ import annotations

import base64
import gc
import hashlib
import json
import pickle
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability.journal import RunJournal, decode_blob
from repro.service import CapmanService, parse_spec
from repro.service import jobs as jobs_module
from repro.service.app import results_body
from repro.service.jobs import DONE, FAILED, JobStore, job_id_for
from repro.sim import sweep as sweep_module
from repro.sim.sweep import (FLEET_MIN_ROWS, ScenarioRunner, SweepCache,
                             cell_keys, code_salt)

from service_client import api, wait_for_job


def fleet_grid(seed=1, duration_s=120.0):
    """``FLEET_MIN_ROWS`` cells that run as one fleet batch: Dual and
    Heuristic rows on two traces, two phones and two ambients."""
    return {
        "policies": {
            "dual": {"type": "dual", "capacity_mah": 150.0},
            "heuristic": {"type": "heuristic", "capacity_mah": 250.0},
        },
        "traces": {
            "video": {"workload": "video", "seed": seed,
                      "duration_s": duration_s},
            "pcmark": {"workload": "pcmark", "seed": seed + 1,
                       "duration_s": duration_s},
        },
        "profiles": ["Nexus", "Honor"],
        "ambients_c": [25.0, 35.0],
        "max_duration_s": 300.0,
    }


def _wait(jobs, deadline_s=120.0):
    deadline = time.monotonic() + deadline_s
    while (any(job.state not in (DONE, FAILED) for job in jobs)
           and time.monotonic() < deadline):
        time.sleep(0.01)
    assert [job.state for job in jobs] == [DONE] * len(jobs), \
        [job.error for job in jobs]


# ----------------------------------------------------------------------
# Journal lines: one encoding, the old bytes
# ----------------------------------------------------------------------
def _old_line(seq, rtype, data):
    """A journal line as ``json.dumps`` of the whole record gives it."""
    canon = json.dumps({"seq": seq, "type": rtype, "data": data},
                       sort_keys=True, separators=(",", ":"))
    crc = hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]
    return json.dumps({"seq": seq, "type": rtype, "data": data,
                       "crc": crc}, sort_keys=True,
                      separators=(",", ":")) + "\n"


_json = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12)
_records = st.lists(st.tuples(st.text(min_size=1),
                              st.dictionaries(st.text(), _json, max_size=5)),
                    min_size=1, max_size=6)


@settings(max_examples=150, deadline=None)
@given(groups=st.lists(_records, min_size=1, max_size=3))
def test_journal_lines_equal_the_whole_record_dump(groups):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.journal"
        expected = []
        with RunJournal(path) as journal:
            for group in groups:
                first = journal.next_seq
                journal.append_many(group)
                expected += [_old_line(first + i, rtype, data)
                             for i, (rtype, data) in enumerate(group)]
        assert path.read_text(encoding="utf-8") == "".join(expected)
        replayed = RunJournal.replay(path)
        assert [(r["type"], r["data"]) for r in replayed] == \
            [record for group in groups for record in group]


# ----------------------------------------------------------------------
# GET /results body: joined, the old bytes
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(blobs=st.lists(st.binary(max_size=64), max_size=8),
       job_id=st.text(alphabet="0123456789abcdef", min_size=32,
                      max_size=32))
def test_results_body_equals_the_dict_dump(blobs, job_id):
    old = json.dumps({
        "job_id": job_id,
        "count": len(blobs),
        "cells": [base64.b64encode(blob).decode("ascii") for blob in blobs],
    }, sort_keys=True).encode("utf-8")
    assert results_body(job_id, blobs) == old


# ----------------------------------------------------------------------
# A served fleet grid: journal == cache == GET == a direct run
# ----------------------------------------------------------------------
@pytest.fixture()
def service(tmp_path, monkeypatch):
    monkeypatch.delenv("CAPMAN_DIST_SECRET", raising=False)
    svc = CapmanService(tmp_path / "state", job_runners=1).start()
    yield svc
    svc.close()


def test_served_fleet_grid_bytes_agree_on_every_path(service):
    host, port = service.address
    base = f"http://{host}:{port}"
    grid = fleet_grid()
    spec = parse_spec(grid)
    assert len(spec) >= FLEET_MIN_ROWS
    code, ack = api(base, "POST", "/jobs", body=grid)
    assert code == 201
    job_id = ack["job_id"]
    status = wait_for_job(base, job_id)
    assert status["state"] == "done"
    assert status["stats"]["cells_fleet"] == len(spec)

    direct = [pickle.dumps(r, protocol=4)
              for r in ScenarioRunner().run(parse_spec(grid)).results]
    code, body = api(base, "GET", f"/jobs/{job_id}/results")
    assert code == 200
    assert [base64.b64decode(cell) for cell in body["cells"]] == direct

    root = service.root
    journal = root / "jobs" / job_id / "run.journal"
    commits = {r["data"]["index"]: r["data"]
               for r in RunJournal.replay(journal)
               if r["type"] == "cell_commit"}
    keys = cell_keys(spec.expand(), code_salt())
    assert [decode_blob(commits[i]["result"]) for i in range(len(spec))] \
        == direct
    assert [commits[i]["key"] for i in range(len(spec))] == keys

    # One pack for the whole grid; each entry is the commit's bytes.
    assert [path.suffix for path in (root / "cache").iterdir()
            if path.name != ".lock"] == [".pack"]
    cache = SweepCache(root / "cache")
    for index, key in enumerate(keys):
        assert cache._read(key)[0] == direct[index]
        assert pickle.dumps(cache.get(key), protocol=4) == direct[index]


def test_a_served_grid_hashes_its_cells_once(tmp_path, monkeypatch):
    calls = []

    def counting(cells, salt=None):
        calls.append(len(cells))
        return cell_keys(cells, salt)

    monkeypatch.setattr(jobs_module, "cell_keys", counting)
    monkeypatch.setattr(sweep_module, "cell_keys", counting)
    grid = fleet_grid(seed=3)
    store = JobStore(tmp_path / "state", job_runners=1)
    try:
        job, created = store.submit(parse_spec(grid))
        assert created
        _wait([job])
    finally:
        store.close()
    spec = parse_spec(grid)
    assert calls == [len(spec)]
    monkeypatch.undo()
    assert job.job_id == job_id_for(spec)
    starts = [r["data"]["key"] for r in RunJournal.replay(
        tmp_path / "state" / "jobs" / job.job_id / "run.journal")
        if r["type"] == "cell_start"]
    assert starts == cell_keys(spec.expand(), code_salt())


# ----------------------------------------------------------------------
# Retention: a finished job keeps about its pickles, not its results
# ----------------------------------------------------------------------
def test_finished_jobs_hold_their_pickle_bytes(tmp_path):
    """Decoded, a fleet grid's results are ~20x their pickles (every
    series buffer, every float object); the store keeps the pickles."""
    store = JobStore(tmp_path / "state", job_runners=1)
    try:
        warm, _ = store.submit(parse_spec(fleet_grid(seed=10)))
        _wait([warm])
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            jobs = [store.submit(parse_spec(fleet_grid(seed=20 + k)))[0]
                    for k in range(3)]
            _wait(jobs)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        pickled = sum(len(blob) for job in jobs
                      for blob in store.result_blobs(job.job_id))
    finally:
        store.close()
    assert grown < 2.0 * pickled, (grown, pickled)
