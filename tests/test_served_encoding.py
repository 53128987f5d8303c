"""A served grid's results are encoded once and stored once, on disk.

The service pickles each computed outcome once (protocol 4) when it
commits; those bytes go to one cache pack, the run journal's
``cell_commit`` record points at them, and ``GET /results`` reads them
back from the cache and streams them in bounded chunks.  A finished
job holds no result bytes.  The journal JSON-encodes each record once,
the results body is framed rather than dumped, and a job's cell keys
are hashed once, on submit.  These tests pin every one of those
encodings to the bytes the straightforward formulas give, and the
memory a finished job keeps to a small fraction of its pickles.
"""

from __future__ import annotations

import base64
import gc
import hashlib
import json
import pickle
import socket
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.durability.journal import RunJournal
from repro.service import CapmanService, parse_spec
from repro.service import jobs as jobs_module
from repro.service.app import (_RAW_SLICE, RESULTS_CHUNK, results_body,
                               results_chunks, results_length)
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
# GET /results body: chunked, the old bytes
# ----------------------------------------------------------------------
def _sized(n):
    """``n`` cheap, non-constant bytes."""
    return (bytes(range(251)) * (n // 251 + 1))[:n]


#: Blobs whose base64 spans one to three slices (and chunk boundaries).
_large = st.integers(_RAW_SLICE - 4, 2 * _RAW_SLICE + 4).map(_sized)
_ID = "0123456789abcdef" * 2


@settings(max_examples=150, deadline=None)
@given(blobs=st.lists(st.binary(max_size=64) | _large, max_size=6),
       job_id=st.text(alphabet="0123456789abcdef", min_size=32,
                      max_size=32))
@example(blobs=[], job_id=_ID)
@example(blobs=[b"", b"a", b"ab", b"abc", b"abcd", b"abcde"], job_id=_ID)
@example(blobs=[_sized(_RAW_SLICE + k) for k in (0, 1, 2)], job_id=_ID)
def test_results_body_equals_the_dict_dump(blobs, job_id):
    """No cells, and blob lengths of 0, 1 and 2 mod 3 on both sides of
    a slice: the chunks join to the dict dump, each fits in
    ``RESULTS_CHUNK``, and the announced length is the body's."""
    old = json.dumps({
        "job_id": job_id,
        "count": len(blobs),
        "cells": [base64.b64encode(blob).decode("ascii") for blob in blobs],
    }, sort_keys=True).encode("utf-8")
    chunks = list(results_chunks(job_id, blobs))
    assert b"".join(chunks) == old
    assert results_body(job_id, blobs) == old
    assert all(0 < len(chunk) <= RESULTS_CHUNK for chunk in chunks)
    assert results_length(job_id, [len(blob) for blob in blobs]) == len(old)


def _raw_get(host, port, path):
    """``(Content-Length, every body byte until the server closes)``."""
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
                     f"Connection: close\r\n\r\n".encode("ascii"))
        data = b""
        while True:
            part = sock.recv(1 << 16)
            if not part:
                break
            data += part
    head, _, body = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    assert lines[0].split()[1] == "200", lines[0]
    fields = dict(line.split(": ", 1) for line in lines[1:])
    return int(fields["Content-Length"]), body


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

    length, streamed = _raw_get(host, port, f"/jobs/{job_id}/results")
    assert length == len(streamed)
    assert streamed == results_body(job_id, direct)

    root = service.root
    journal = root / "jobs" / job_id / "run.journal"
    commits = {r["data"]["index"]: r["data"]
               for r in RunJournal.replay(journal)
               if r["type"] == "cell_commit"}
    keys = cell_keys(spec.expand(), code_salt())
    assert [commits[i]["key"] for i in range(len(spec))] == keys

    # One pack for the whole grid.  Each commit points at its cell's
    # bytes in it, which are the cache entry and the GET bytes.
    (pack,) = [path for path in (root / "cache").iterdir()
               if path.name != ".lock"]
    assert pack.suffix == ".pack"
    packed = pack.read_bytes()
    cache = SweepCache(root / "cache")
    for index, key in enumerate(keys):
        commit = commits[index]
        assert set(commit) == {"index", "key", "pack", "offset", "length",
                               "sha256"}
        assert (journal.parent / commit["pack"]).resolve() == pack.resolve()
        start = commit["offset"]
        assert packed[start:start + commit["length"]] == direct[index]
        assert commit["sha256"] == hashlib.sha256(direct[index]).hexdigest()
        assert cache.entry(key) == direct[index]
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
# Retention: a finished job keeps no result bytes
# ----------------------------------------------------------------------
def test_finished_jobs_hold_no_result_bytes(tmp_path):
    """A finished job keeps its cell keys, stats and progress snapshot,
    not its pickles (let alone the decoded results, ~20x larger): its
    results are read back from the cache pack.  Holding the pickles,
    as finished jobs once did, grows memory by more than their size."""
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
        for job in jobs:
            assert job.spec is None and job.runner is None
            progress = store.status(job.job_id)["progress"]
            assert progress["finished"] and progress["done"] == job.n_cells
    finally:
        store.close()
    assert grown < 0.25 * pickled, (grown, pickled)


def test_a_recovered_job_reads_its_keys_from_the_run_journal(tmp_path):
    """After a restart, a finished job loads no spec; its first results
    request hashes the keys from the run journal's ``sweep_start`` and
    reads the cache, running and appending nothing."""
    root = tmp_path / "state"
    store = JobStore(root, job_runners=1)
    try:
        job, _ = store.submit(parse_spec(fleet_grid(seed=4)))
        _wait([job])
        before = store.result_blobs(job.job_id)
    finally:
        store.close()
    journal = root / "jobs" / job.job_id / "run.journal"
    size = journal.stat().st_size

    again = JobStore(root, job_runners=1)
    try:
        recovered = again.get(job.job_id)
        assert recovered.state == DONE
        assert recovered.spec is None and recovered.keys is None
        assert recovered.n_cells == job.n_cells
        assert again.result_blobs(job.job_id) == before
        assert recovered.keys == job.keys
    finally:
        again.close()
    assert journal.stat().st_size == size


def test_an_unreadable_result_is_a_500_before_any_body(service):
    host, port = service.address
    base = f"http://{host}:{port}"
    code, ack = api(base, "POST", "/jobs", body=fleet_grid(seed=5))
    assert code == 201
    assert wait_for_job(base, ack["job_id"])["state"] == "done"
    for pack in (service.root / "cache").glob("*.pack"):
        pack.unlink()
    code, body = api(base, "GET", f"/jobs/{ack['job_id']}/results")
    assert code == 500
    assert body["error"]["code"] == "results_unreadable"
