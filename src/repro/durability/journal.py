"""Write-ahead run journal: fsync'd JSONL with torn-tail recovery.

The sweep engine appends one record per cell event (start, commit) to
a :class:`RunJournal`.  Each record is a single JSON line carrying a
monotonically increasing sequence number and a checksum over its own
content, and every append is flushed *and* fsync'd before the caller
proceeds -- that is what makes the journal a write-ahead log: a cell
is only ever considered committed once its commit record is durable.
Records that land at the same moment (a batch of cell starts, a fleet
batch's commits) go through :meth:`RunJournal.append_many`: one flush
and one fsync for the group, each record still with its own sequence
number and checksum.

A SIGKILL can still land mid-``write``; the victim is the *tail* line,
which is then incomplete or fails its checksum.  :meth:`RunJournal.replay`
detects that by validating sequence numbers and checksums front to
back, stops at the first bad record, and (by default) truncates the
file back to the last good byte offset -- the recovery is "forget the
torn record", never "crash" and never "trust bad state".

Binary payloads (pickled specs/results) travel base64-encoded via
:func:`encode_blob` / :func:`decode_blob`.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from .. import obs

__all__ = ["JournalError", "RunJournal", "encode_blob", "decode_blob"]


class JournalError(RuntimeError):
    """The journal is unusable (missing header, wrong file, ...)."""


def encode_blob(data: bytes) -> str:
    """Bytes -> JSON-safe base64 text."""
    return base64.b64encode(data).decode("ascii")


def decode_blob(text: str) -> bytes:
    """Base64 text -> bytes."""
    return base64.b64decode(text.encode("ascii"))


def _record_crc(seq: int, rtype: str, data: Dict[str, Any]) -> str:
    canon = json.dumps({"seq": seq, "type": rtype, "data": data},
                       sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


class RunJournal:
    """Append-only JSONL journal with per-record checksums.

    Open for appending with the constructor (it validates and recovers
    any existing tail first); read one back with :meth:`replay`.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        records, good_bytes, self._dropped = self._scan(self.path)
        if good_bytes is not None:
            _truncate(self.path, good_bytes)
        self._seq = records[-1]["seq"] + 1 if records else 0
        self._fh = self.path.open("a", encoding="utf-8")
        # Appends are serialised: the distributed coordinator journals
        # lease grants from connection-handler threads while the runner
        # thread journals commits, and interleaved writes would tear
        # both records.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def next_seq(self) -> int:
        """Sequence number the next append will carry."""
        return self._seq

    @property
    def recovered_records(self) -> int:
        """Torn/corrupt tail records dropped when the journal was opened."""
        return self._dropped

    def append(self, rtype: str, data: Dict[str, Any]) -> int:
        """Durably append one record; returns its sequence number.

        Thread-safe: concurrent appenders are serialised, each record
        is fully written and fsync'd before the next begins.
        """
        return self.append_many([(rtype, data)])[0]

    def append_many(self, records: Iterable[Tuple[str, Dict[str, Any]]]
                    ) -> List[int]:
        """Durably append ``(type, data)`` records as one group commit.

        One lock hold, one flush and one fsync for the whole group;
        returns the records' sequence numbers.  ``records`` may be a
        generator: each record is encoded and handed to the buffered
        file as it is drawn, so a group of large result blobs is never
        held in memory at once.  Each line still carries its own
        ``seq`` and ``crc``, so a kill mid-write tears only the tail of
        the group and replay keeps every whole record before it,
        exactly as for single appends.
        """
        ob = obs.session()
        started = time.monotonic() if ob is not None else 0.0
        with self._lock:
            if self._fh is None:
                raise JournalError("journal is closed")
            first = self._seq
            for rtype, data in records:
                seq = self._seq
                record = {"seq": seq, "type": rtype, "data": data,
                          "crc": _record_crc(seq, rtype, data)}
                self._fh.write(json.dumps(record, sort_keys=True,
                                          separators=(",", ":")) + "\n")
                self._seq = seq + 1
            count = self._seq - first
            if count:
                self._fh.flush()
                os.fsync(self._fh.fileno())
        if ob is not None and count:
            reg = ob.registry
            reg.counter("durability.journal_appends").inc(count)
            reg.histogram("durability.journal_append_s").observe(
                time.monotonic() - started)
        return list(range(first, first + count))

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    @classmethod
    def replay(cls, path: Union[str, Path],
               recover: bool = True) -> List[Dict[str, Any]]:
        """Read every valid record, in order.

        Validation stops at the first torn/corrupt/out-of-sequence
        line; with ``recover=True`` (the default) the file is truncated
        back to the last good record so subsequent appends extend a
        clean log.  The records after the bad one are unreachable by
        construction -- the journal is strictly sequential, so nothing
        after a torn write can be trusted.
        """
        path = Path(path)
        if not path.exists():
            raise JournalError(f"no journal at {path}")
        records, good_bytes, _ = cls._scan(path)
        if recover and good_bytes is not None:
            _truncate(path, good_bytes)
        return records

    @classmethod
    def replay_typed(cls, path: Union[str, Path], rtypes: Tuple[str, ...],
                     recover: bool = True) -> List[Dict[str, Any]]:
        """Like :meth:`replay`, keeping only records of the given types.

        Convenience for journals that multiplex record families (the
        service's job WAL interleaves ``job_submit``/``job_done`` with
        whatever future record types ride along): validation and tail
        recovery still run over the whole file, the filter applies to
        the returned view only.
        """
        return [record for record in cls.replay(path, recover=recover)
                if record["type"] in rtypes]

    @staticmethod
    def _scan(path: Path) -> Tuple[List[Dict[str, Any]], Optional[int], int]:
        """(valid records, truncate-to offset or None, dropped lines)."""
        records: List[Dict[str, Any]] = []
        if not path.exists():
            return records, None, 0
        good_offset = 0
        bad_lines = 0
        with path.open("rb") as fh:
            raw = fh.read()
        offset = 0
        for line in raw.splitlines(keepends=True):
            complete = line.endswith(b"\n")
            text = line.rstrip(b"\r\n")
            record = _parse_record(text) if complete and text else None
            expected_seq = records[-1]["seq"] + 1 if records else 0
            if record is None or record["seq"] != expected_seq:
                bad_lines += sum(1 for l in raw[offset:].splitlines() if l.strip())
                return records, offset, bad_lines
            records.append(record)
            offset += len(line)
        tail = raw[offset:]
        if tail.strip():
            # Torn final line without a newline.
            bad_lines += 1
            return records, offset, bad_lines
        return records, None, 0


def _parse_record(text: bytes) -> Optional[Dict[str, Any]]:
    try:
        record = json.loads(text.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(record, dict):
        return None
    try:
        seq = record["seq"]
        rtype = record["type"]
        data = record["data"]
        crc = record["crc"]
    except KeyError:
        return None
    if not isinstance(seq, int) or not isinstance(rtype, str) \
            or not isinstance(data, dict):
        return None
    if crc != _record_crc(seq, rtype, data):
        return None
    return {"seq": seq, "type": rtype, "data": data}


def _truncate(path: Path, size: int) -> None:
    if path.stat().st_size <= size:
        return
    with path.open("rb+") as fh:
        fh.truncate(size)
        fh.flush()
        os.fsync(fh.fileno())
