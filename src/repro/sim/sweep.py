"""Scenario-sweep engine for the evaluation grids.

The paper's whole evaluation surface -- Figures 12-15, the daily-wear
extension and the headline numbers -- is a grid of scenarios: policies
x traces x phone profiles (x control step x ambient), each cell one
independent discharge cycle (or multi-day run).  This module turns
that implicit pattern into an explicit engine:

* :class:`SweepSpec` declares the grid and expands it into
  :class:`ScenarioCell` rows in a deterministic order;
* :class:`ScenarioRunner` executes the cells -- a big enough batch of
  fleet-supported cells as rows of one in-process vectorised fleet
  simulation, the rest serially on the scalar engine -- with results
  returned in spec order and identical on either path;
* an optional on-disk cache keyed by a content hash of the scenario
  configuration plus a code-version salt lets a re-run recompute only
  the cells whose inputs actually changed;
* :class:`SimStats` reports throughput (control steps/s), per-phase
  wall times and cache hit/miss counts next to the results;
* failures are contained per cell: a raising cell comes back as a
  :class:`CellFailure` carrying the traceback -- the rest of the grid
  always completes, and failed cells are never cached;
* an optional write-ahead run journal
  (:class:`~repro.durability.journal.RunJournal`) makes the sweep
  itself crash-durable: every cell start is an fsync'd record, every
  committed result an fsync'd record pointing into an fsync'd pack,
  long cells checkpoint mid-flight into sidecar files, and
  :meth:`ScenarioRunner.resume` continues a SIGKILL'd sweep without
  recomputing a single committed cell.

Every scenario cell is pure: it builds its own policy copy, pack and
phone, so cells never share mutable state.  That is what makes the
cache sound.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import itertools
import logging
import os
import pickle
import struct
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (AbstractSet, Any, Dict, Iterator, List, Mapping,
                    Optional, Sequence, Set, Tuple, Union)

import numpy as np

from .. import obs
from ..device.profiles import NEXUS, PhoneProfile
from ..durability.journal import JournalError, RunJournal, decode_blob, encode_blob
from ..durability.lock import FileLock
from ..workload.traces import Trace
from .daily import MultiDayResult
from .discharge import DischargeResult, SchedulingPolicy
from .executors import CellFailure, ExecutionContext, LocalProcessExecutor

__all__ = [
    "ScenarioCell",
    "SweepSpec",
    "SimStats",
    "SweepProgress",
    "SweepResult",
    "SweepCache",
    "ScenarioRunner",
    "CellFailure",
]

#: Result type of a single scenario cell.
CellResult = Union[DischargeResult, MultiDayResult]

#: What a result slot can hold once failures are contained per cell.
CellOutcome = Union[DischargeResult, MultiDayResult, CellFailure]

_log = logging.getLogger(__name__)


# ----------------------------------------------------------------------
# Spec and cells
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioCell:
    """One fully specified, independently runnable scenario."""

    #: Position in the expanded spec (also the result index).
    index: int
    policy_key: str
    trace_key: str
    profile_key: str
    control_dt: float
    ambient_c: float
    #: "discharge" for one cycle, "daily" for a multi-day run.
    kind: str
    policy: SchedulingPolicy = field(repr=False)
    trace: Trace = field(repr=False)
    profile: PhoneProfile = field(repr=False)
    max_duration_s: float = 3.0 * 3600.0
    record_every: int = 1
    #: Extra keyword arguments for the run (e.g. daily: n_days, aging).
    extra: Tuple[Tuple[str, Any], ...] = ()

    @property
    def label(self) -> str:
        """Human-readable cell identifier."""
        return (f"{self.policy_key}/{self.trace_key}/{self.profile_key}"
                f"/dt={self.control_dt}/amb={self.ambient_c}")


@dataclass
class SweepSpec:
    """A declarative scenario grid.

    The cross product ``policies x traces x profiles x control_dts x
    ambients_c`` is expanded in that key order (insertion order of the
    mappings, then sequence order), which fixes the cell indices and
    thereby the result ordering on every execution path.

    Parameters
    ----------
    policies / traces / profiles:
        Named axes; every combination becomes a cell.  Policies are
        treated as templates -- each cell runs on its own deep copy,
        so a spec may reuse one policy object across many cells.
    control_dts / ambients_c:
        Numeric axes (control step seconds, ambient degC).
    kind:
        "discharge" runs :func:`run_discharge_cycle` per cell;
        "daily" runs :func:`~repro.sim.daily.run_days`.
    max_duration_s / record_every:
        Forwarded to the discharge harness ("daily" maps
        ``max_duration_s`` onto ``max_cycle_s``).
    extra:
        Additional keyword arguments for the run function (for
        "daily": ``n_days``, ``aging``, ``charger``).
    """

    policies: Mapping[str, SchedulingPolicy]
    traces: Mapping[str, Trace]
    profiles: Mapping[str, PhoneProfile] = field(
        default_factory=lambda: {"Nexus": NEXUS})
    control_dts: Sequence[float] = (2.0,)
    ambients_c: Sequence[float] = (25.0,)
    kind: str = "discharge"
    max_duration_s: float = 3.0 * 3600.0
    record_every: int = 1
    extra: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.policies or not self.traces or not self.profiles:
            raise ValueError("policies, traces and profiles must be non-empty")
        if self.kind not in ("discharge", "daily"):
            raise ValueError(f"unknown sweep kind {self.kind!r}")
        if any(dt <= 0 for dt in self.control_dts):
            raise ValueError("control_dts must be positive")

    def expand(self) -> List[ScenarioCell]:
        """The grid as an ordered list of cells."""
        cells: List[ScenarioCell] = []
        extra = tuple(sorted(self.extra.items()))
        index = 0
        for policy_key, policy in self.policies.items():
            for trace_key, trace in self.traces.items():
                for profile_key, profile in self.profiles.items():
                    for control_dt in self.control_dts:
                        for ambient in self.ambients_c:
                            cells.append(ScenarioCell(
                                index=index,
                                policy_key=policy_key,
                                trace_key=trace_key,
                                profile_key=profile_key,
                                control_dt=float(control_dt),
                                ambient_c=float(ambient),
                                kind=self.kind,
                                policy=policy,
                                trace=trace,
                                profile=profile,
                                max_duration_s=self.max_duration_s,
                                record_every=self.record_every,
                                extra=extra,
                            ))
                            index += 1
        return cells

    def __len__(self) -> int:
        return (len(self.policies) * len(self.traces) * len(self.profiles)
                * len(self.control_dts) * len(self.ambients_c))


# ----------------------------------------------------------------------
# Content hashing (cache keys)
# ----------------------------------------------------------------------
_CODE_SALT: Optional[str] = None


def code_salt() -> str:
    """A digest of the installed ``repro`` sources.

    Folded into every cache key so that editing the simulator (or any
    model it drives) invalidates previously cached results instead of
    silently serving stale ones.
    """
    global _CODE_SALT
    if _CODE_SALT is None:
        import repro

        digest = hashlib.sha256()
        root = Path(repro.__file__).resolve().parent
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
        _CODE_SALT = digest.hexdigest()[:16]
    return _CODE_SALT


def _canonical(obj: Any) -> Any:
    """A stable, hashable description of a scenario component.

    Dataclasses describe themselves by class name plus their init
    fields (recursively), so any constructor parameter change -- a
    policy threshold, a profile power table entry, a trace segment --
    changes the key.  Private/runtime-only fields (``init=False``) are
    excluded: they are derived state, not configuration.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        fields = [
            (f.name, _canonical(getattr(obj, f.name)))
            for f in dataclasses.fields(cls) if f.init
        ]
        return (f"{cls.__module__}.{cls.__qualname__}", tuple(fields))
    if isinstance(obj, dict):
        items = [(_canonical(k), _canonical(v)) for k, v in obj.items()]
        return tuple(sorted(items, key=repr))
    if isinstance(obj, (list, tuple)):
        return tuple(_canonical(v) for v in obj)
    if isinstance(obj, Trace):
        return ("Trace", obj.name,
                tuple(_canonical(seg) for seg in obj.segments))
    if isinstance(obj, (str, int, float, bool, type(None))):
        return obj
    if isinstance(obj, enum.Enum):
        return (f"{type(obj).__module__}.{type(obj).__qualname__}", obj.name)
    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.shape, str(obj.dtype), obj.tobytes().hex())
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, type):
        return f"{obj.__module__}.{obj.__qualname__}"
    # Fallback: classes with attribute dicts (e.g. plain objects).
    state = getattr(obj, "__dict__", None)
    if state is not None:
        return (f"{type(obj).__module__}.{type(obj).__qualname__}",
                tuple((k, _canonical(v)) for k, v in sorted(state.items())
                      if not k.startswith("_")))
    return repr(obj)


def cell_keys(cells: Sequence[ScenarioCell],
              salt: Optional[str] = None) -> List[str]:
    """Content-hash cache keys for a batch of cells (index-independent).

    A grid shares one policy, trace and profile object across many
    cells, so each axis object's ``repr(_canonical(obj))`` is built
    once per call, memoised by identity.  A cell's hash input joins
    those strings and the ``repr`` of its scalar fields as
    ``"(" + ", ".join(parts) + ")"``: exactly the ``repr`` of its
    canonical 10-tuple ``(salt, kind, control_dt, ambient_c,
    max_duration_s, record_every, policy, trace, profile, extra)``.
    The memo lives only for this call: a caller that mutates a policy
    between calls gets a fresh key, never a stale one.  The memo pins
    every object it saw, so an ``id`` cannot be reused by a new object
    while the call runs.
    """
    salt = salt if salt is not None else code_salt()
    memo: Dict[int, Tuple[Any, str]] = {}

    def canonical_repr(obj: Any) -> str:
        hit = memo.get(id(obj))
        if hit is None:
            hit = memo[id(obj)] = (obj, repr(_canonical(obj)))
        return hit[1]

    salt_repr = repr(salt)
    keys: List[str] = []
    for cell in cells:
        text = "(" + ", ".join((
            salt_repr,
            repr(cell.kind),
            repr(cell.control_dt),
            repr(cell.ambient_c),
            repr(cell.max_duration_s),
            repr(cell.record_every),
            canonical_repr(cell.policy),
            canonical_repr(cell.trace),
            canonical_repr(cell.profile),
            repr(_canonical(dict(cell.extra))),
        )) + ")"
        keys.append(hashlib.sha256(text.encode()).hexdigest())
    return keys


def cell_key(cell: ScenarioCell, salt: Optional[str] = None) -> str:
    """Content-hash cache key for one cell (index-independent)."""
    return cell_keys([cell], salt)[0]


# ----------------------------------------------------------------------
# On-disk result cache
# ----------------------------------------------------------------------
#: First bytes of every pack file.
PACK_MAGIC = b"SWPACK1\n"
#: Pack head: magic, entry count, byte length of the index after it.
_PACK_HEAD = struct.Struct("<8sII")
#: One index record: key length, entry offset, entry length.
_PACK_RECORD = struct.Struct("<HQQ")
#: Bytes read to find a pack's index (a 96-cell grid's is ~8 KiB).
_INDEX_READ = 16384
#: A directory listing taken less than this long after the directory's
#: last change is not trusted: a file added later in the same
#: timestamp tick would leave the directory's identity unchanged.
_RACY_NS = 20_000_000

#: ``(st_ino, st_size, st_mtime_ns)``: which file a name pointed at.
FileIdentity = Tuple[int, int, int]


def _identity(st: os.stat_result) -> FileIdentity:
    return (st.st_ino, st.st_size, st.st_mtime_ns)


def _pack_name(keys: Sequence[str]) -> str:
    """A pack's file name, a pure function of its sorted key set."""
    digest = hashlib.sha256("\0".join(keys).encode("utf-8")).hexdigest()
    return f"{digest[:40]}.pack"


def _pack_parts(keys: Sequence[str], blobs: Sequence[bytes]
                ) -> Tuple[List[bytes], List[Tuple[int, int]]]:
    """The byte parts of a pack and each entry's ``(offset, length)``."""
    raw = [key.encode("utf-8") for key in keys]
    index_len = _PACK_RECORD.size * len(raw) + sum(map(len, raw))
    offset = _PACK_HEAD.size + index_len
    records: List[bytes] = []
    spots: List[Tuple[int, int]] = []
    for name, blob in zip(raw, blobs):
        records.append(_PACK_RECORD.pack(len(name), offset, len(blob)))
        spots.append((offset, len(blob)))
        offset += len(blob)
    head = _PACK_HEAD.pack(PACK_MAGIC, len(raw), index_len)
    return [head, *records, *raw, *blobs], spots


def _write_pack(directory: str, keys: Sequence[str], blobs: Sequence[bytes]
                ) -> Tuple[str, FileIdentity, Dict[str, Tuple[int, int]]]:
    """Write ``keys``' entries as one durable pack in ``directory``.

    Temp file, fsync, rename, then an fsync of the directory: once this
    returns, the pack survives a crash under its name, so a journal
    record may point into it.  ``keys`` must be sorted.  Returns the
    pack's file name, its identity and each key's ``(offset, length)``.
    """
    name = _pack_name(keys)
    parts, spots = _pack_parts(keys, blobs)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(parts)
            fh.flush()
            os.fsync(fh.fileno())
            ident = _identity(os.fstat(fh.fileno()))
        os.replace(tmp, os.path.join(directory, name))
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    return name, ident, dict(zip(keys, spots))


def _read_index(fd: int, size: int) -> Optional[Dict[str, Tuple[int, int]]]:
    """Parse an open pack's index: key -> ``(offset, length)``.

    None unless the index is whole and well-formed and every entry lies
    inside the file.
    """
    head = os.pread(fd, _INDEX_READ, 0)
    if len(head) < _PACK_HEAD.size:
        return None
    magic, count, index_len = _PACK_HEAD.unpack_from(head)
    end = _PACK_HEAD.size + index_len
    names_at = _PACK_HEAD.size + _PACK_RECORD.size * count
    if magic != PACK_MAGIC or end > size or names_at > end:
        return None
    if len(head) < end:
        head += os.pread(fd, end - len(head), len(head))
        if len(head) < end:
            return None
    entries: Dict[str, Tuple[int, int]] = {}
    pos = names_at
    for key_len, offset, length in _PACK_RECORD.iter_unpack(
            head[_PACK_HEAD.size:names_at]):
        if offset < end or offset + length > size:
            return None
        entries[head[pos:pos + key_len].decode("utf-8", "replace")] = (
            offset, length)
        pos += key_len
    return entries if pos == end else None


class SweepCache:
    """On-disk result cache: one immutable pack file per write.

    :meth:`put` stores a batch of entries -- a sweep's computed cells --
    as one ``<digest>.pack`` file: :data:`PACK_MAGIC`, an index of
    ``(key, offset, length)`` records, then each entry's protocol-4
    pickle.  The name is a digest of the sorted key set, so rewriting
    the same keys replaces the pack (the last writer wins).  Writes go
    to a temp file, fsync'd and renamed into place (then the directory
    is fsync'd) while holding an advisory
    :class:`~repro.durability.lock.FileLock` on the adjacent ``.lock``
    file, so concurrent runners serialise their writes (the kernel
    releases the lock if a holder dies, so a crashed runner can never
    wedge the cache).  A written pack is durable, so run-journal
    commits point into it rather than carry their own copy: a cache
    directory that live journals reference must not be pruned.

    :meth:`get` (and :meth:`entry`, which skips the unpickling) reads
    only its entry's bytes, located through an
    in-memory index shared by the threads using this instance.  A key
    the index lacks triggers one directory listing -- skipped while the
    directory is unchanged since the last trusted one -- which picks up
    packs written since by any process, and ``<key>.pkl`` files from
    the older one-pickle-per-cell layout, which are still read.  A pack
    replaced since it was indexed is re-indexed before the read.

    Anything unreadable -- a pack whose index does not parse, an entry
    that does not unpickle, a torn legacy file -- is a miss: the file
    is deleted (if it is still the one read) and its keys leave the
    index, so a torn write or a foreign file never poisons a sweep.

    A key's bytes must be a pure function of the key: two packs that
    hold one key may then serve it interchangeably.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._dir = str(self.directory)
        #: Advisory inter-process writer lock (reads stay lock-free).
        self.lock = FileLock(self.directory / ".lock")
        self._guard = threading.Lock()
        #: key -> (file name, identity when indexed, offset, length);
        #: a legacy file has identity None and length -1 (whole file).
        self._index: Dict[str, Tuple[str, Optional[FileIdentity],
                                     int, int]] = {}
        #: Indexed file name -> its keys.
        self._files: Dict[str, Tuple[str, ...]] = {}
        #: Directory identity at the last trusted listing.
        self._listed: Optional[FileIdentity] = None

    def get(self, key: str) -> Optional[CellResult]:
        """The cached result, or None on miss/corruption."""
        found = self._read(key)
        if found is None:
            return None
        blob, name, ident = found
        try:
            return pickle.loads(blob)
        except Exception:
            self._discard(name, ident)
            return None

    def entry(self, key: str) -> Optional[bytes]:
        """The cached result's pickle bytes, or None on a miss."""
        found = self._read(key)
        return None if found is None else found[0]

    def put(self, entries: Mapping[str, Union[CellResult, bytes]]
            ) -> Dict[str, Tuple[Path, int, int]]:
        """Store ``entries`` as one durable pack; returns each key's
        ``(pack path, offset, length)``.

        ``bytes`` values are taken as the result already pickled: the
        runner pickles each computed outcome once and commits those
        bytes here.  Other values are pickled (protocol 4) while the
        lock is held.
        """
        keys = sorted(entries)
        if not keys:
            return {}
        with self.lock:
            blobs = [value if isinstance(value, bytes)
                     else pickle.dumps(value, protocol=4)
                     for value in map(entries.__getitem__, keys)]
            name, ident, spots = _write_pack(self._dir, keys, blobs)
        self._note(name, ident, spots)
        path = self.directory / name
        return {key: (path, offset, length)
                for key, (offset, length) in spots.items()}

    def __len__(self) -> int:
        """Distinct keys across readable packs and legacy files."""
        keys: Set[str] = set()
        for name in os.listdir(self._dir):
            if name.endswith(".pkl"):
                keys.add(name[:-4])
            elif name.endswith(".pack"):
                try:
                    keys.update(self._open_index(name)[1] or ())
                except OSError:
                    pass
        return len(keys)

    # -- index ---------------------------------------------------------
    def _note(self, name: str, ident: Optional[FileIdentity],
              spots: Mapping[str, Tuple[int, int]]) -> None:
        with self._guard:
            self._files[name] = tuple(spots)
            for key, (offset, length) in spots.items():
                self._index[key] = (name, ident, offset, length)

    def _forget(self, name: str) -> None:
        with self._guard:
            for key in self._files.pop(name, ()):
                if self._index.get(key, ("",))[0] == name:
                    del self._index[key]

    def _discard(self, name: str, ident: FileIdentity) -> None:
        """Delete an unreadable file if it is still the one read."""
        path = os.path.join(self._dir, name)
        try:
            if _identity(os.stat(path)) == ident:
                os.unlink(path)
        except OSError:
            pass
        self._forget(name)

    def _open_index(self, name: str) -> Tuple[
            FileIdentity, Optional[Dict[str, Tuple[int, int]]]]:
        """Pack ``name``'s identity and index (None if it does not
        parse); raises ``OSError`` if the file cannot be opened."""
        fd = os.open(os.path.join(self._dir, name), os.O_RDONLY)
        try:
            st = os.fstat(fd)
            return _identity(st), _read_index(fd, st.st_size)
        finally:
            os.close(fd)

    def _rescan(self) -> bool:
        """Index files added since the last listing; False when the
        directory is unchanged since the last trusted listing."""
        st = os.stat(self._dir)
        listed = _identity(st)
        with self._guard:
            if listed == self._listed:
                return False
            known = set(self._files)
        names = os.listdir(self._dir)
        trusted = time.time_ns() - st.st_mtime_ns >= _RACY_NS
        for name in names:
            if name in known:
                continue
            if name.endswith(".pkl"):
                self._note(name, None, {name[:-4]: (0, -1)})
            elif name.endswith(".pack"):
                try:
                    ident, spots = self._open_index(name)
                except FileNotFoundError:
                    continue
                if spots is None:
                    self._discard(name, ident)
                else:
                    self._note(name, ident, spots)
        with self._guard:
            self._listed = listed if trusted else None
        return True

    def _lookup(self, key: str
                ) -> Optional[Tuple[str, Optional[FileIdentity], int, int]]:
        with self._guard:
            where = self._index.get(key)
        if where is None and self._rescan():
            with self._guard:
                where = self._index.get(key)
        return where

    def _read(self, key: str
              ) -> Optional[Tuple[bytes, str, FileIdentity]]:
        """``key``'s entry bytes with the file name and identity they
        came from, or None on a miss or an unreadable file."""
        for _attempt in range(2):
            where = self._lookup(key)
            if where is None:
                return None
            name, ident, offset, length = where
            try:
                fd = os.open(os.path.join(self._dir, name), os.O_RDONLY)
            except FileNotFoundError:
                # Deleted since indexed: the key may live in another pack.
                self._forget(name)
                continue
            try:
                st = os.fstat(fd)
                now = _identity(st)
                if length < 0:
                    return os.pread(fd, st.st_size, 0), name, now
                if now != ident:
                    spots = _read_index(fd, st.st_size)
                    if spots is None:
                        self._discard(name, now)
                        return None
                    self._note(name, now, spots)
                    if key not in spots:
                        return None
                    offset, length = spots[key]
                blob = os.pread(fd, length, offset)
            finally:
                os.close(fd)
            if len(blob) != length:
                self._discard(name, now)
                return None
            return blob, name, now
        return None


# ----------------------------------------------------------------------
# Stats
# ----------------------------------------------------------------------
@dataclass
class SimStats:
    """Throughput and phase accounting for one sweep run."""

    cells_total: int = 0
    cells_computed: int = 0
    #: Cells whose slot holds a :class:`CellFailure`.
    cells_failed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Committed cells restored from the run journal (never recomputed).
    cells_resumed: int = 0
    #: Pending cells that found an in-cell sidecar checkpoint to
    #: continue from (their completed steps are not re-simulated).
    cells_checkpoint_resumed: int = 0
    #: Computed cells that ran as rows of one vectorised fleet batch
    #: (see :data:`FLEET_MIN_ROWS`); the rest ran on the scalar engine.
    cells_fleet: int = 0
    #: Fleet batches that raised and were rerun on the scalar engine.
    fleet_fallbacks: int = 0
    #: Control steps across computed cells (cache hits excluded).
    steps_total: int = 0
    #: Wall time spent expanding the spec / hashing keys (s).
    expand_wall_s: float = 0.0
    #: Wall time spent running scenario cells (s).
    compute_wall_s: float = 0.0
    #: Wall time spent on cache reads/writes (s).
    cache_wall_s: float = 0.0
    #: End-to-end wall time of ``ScenarioRunner.run`` (s).
    total_wall_s: float = 0.0
    #: Executor backend that ran the pending cells ("local", or a
    #: custom executor's name; "none" when no executor ran because every
    #: cell came from cache, the journal or a fleet batch).
    executor: str = "none"

    @property
    def steps_per_sec(self) -> float:
        """Simulated control steps per compute-second."""
        if self.compute_wall_s <= 0:
            return 0.0
        return self.steps_total / self.compute_wall_s

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view (JSON-friendly)."""
        d = dataclasses.asdict(self)
        d["steps_per_sec"] = self.steps_per_sec
        return d


#: Per-cell progress states an external poller can observe.
#: "done"/"failed" are the executed outcomes; "cached" and "resumed"
#: are cells satisfied without execution (cache hit / journal replay).
CELL_STATES = ("queued", "running", "done", "failed", "cached", "resumed")

#: The subset of states that count as successfully finished.
_TERMINAL_OK = ("done", "cached", "resumed")


@dataclass(frozen=True)
class SweepProgress:
    """A point-in-time snapshot of a sweep's per-cell execution state.

    Built by :meth:`ScenarioRunner.progress` under the runner's
    progress lock, so an external poller (a status endpoint, another
    thread) can enumerate cell status mid-run without touching the
    executor.  ``done`` counts every successfully finished cell
    regardless of how it finished -- computed, cache hit or journal
    resume -- while the per-cell mapping keeps the distinction.
    """

    total: int
    queued: int
    running: int
    done: int
    failed: int
    #: index -> state, one of :data:`CELL_STATES`.
    cells: Dict[int, str] = field(default_factory=dict)
    #: index -> human-readable cell label.
    labels: Dict[int, str] = field(default_factory=dict, repr=False)

    @property
    def finished(self) -> bool:
        """Whether every cell has reached a terminal state."""
        return self.total > 0 and self.queued == 0 and self.running == 0

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly view (cell indices become string keys)."""
        return {
            "total": self.total,
            "queued": self.queued,
            "running": self.running,
            "done": self.done,
            "failed": self.failed,
            "finished": self.finished,
            "cells": {str(i): s for i, s in sorted(self.cells.items())},
        }


@dataclass
class SweepResult:
    """Ordered results of a sweep plus run statistics.

    A result slot holds the cell's :data:`CellResult` -- or a
    :class:`CellFailure` when the cell raised; ``failures``/``succeeded``
    split the two.
    """

    cells: List[ScenarioCell]
    results: List[CellOutcome]
    stats: SimStats
    #: Merged observability blob of the whole sweep (None unless obs
    #: is enabled): the runner's own counters plus the fold of every
    #: computed and resumed cell's telemetry.  Out-of-band of the
    #: results -- excluded from equality.
    telemetry: Optional[obs.RunTelemetry] = field(
        default=None, repr=False, compare=False)

    def __iter__(self) -> Iterator[Tuple[ScenarioCell, CellOutcome]]:
        return iter(zip(self.cells, self.results))

    @property
    def failures(self) -> List[Tuple[ScenarioCell, CellFailure]]:
        """Cells whose slot holds a failure, in spec order."""
        return [(c, r) for c, r in self if isinstance(r, CellFailure)]

    @property
    def succeeded(self) -> List[Tuple[ScenarioCell, CellResult]]:
        """Cells that produced a real result, in spec order."""
        return [(c, r) for c, r in self if not isinstance(r, CellFailure)]

    def get(self, **axes: Any) -> CellOutcome:
        """The unique result matching the given axis values.

        Axes are matched against ``policy_key`` (``policy=...``),
        ``trace_key`` (``trace=...``), ``profile_key``
        (``profile=...``), ``control_dt`` and ``ambient_c``.
        Returns the failure object itself for a failed cell.
        """
        matches = [r for c, r in self if _cell_matches(c, axes)]
        if not matches:
            raise KeyError(f"no cell matches {axes}")
        if len(matches) > 1:
            raise KeyError(f"{len(matches)} cells match {axes}")
        return matches[0]

    def by_policy(self, **axes: Any) -> Dict[str, CellResult]:
        """Results keyed by policy for one point on the other axes."""
        out: Dict[str, CellResult] = {}
        for cell, result in self:
            if _cell_matches(cell, axes):
                if cell.policy_key in out:
                    raise KeyError(
                        f"policy {cell.policy_key!r} is ambiguous under {axes}")
                out[cell.policy_key] = result
        if not out:
            raise KeyError(f"no cell matches {axes}")
        return out


def _cell_matches(cell: ScenarioCell, axes: Mapping[str, Any]) -> bool:
    lookup = {
        "policy": cell.policy_key,
        "trace": cell.trace_key,
        "profile": cell.profile_key,
        "control_dt": cell.control_dt,
        "ambient_c": cell.ambient_c,
    }
    for name, want in axes.items():
        if name not in lookup:
            raise KeyError(f"unknown sweep axis {name!r}")
        if lookup[name] != want:
            return False
    return True


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
#: Fewest pending fleet-eligible cells worth one vectorised batch.
#: Measured on a 2-vCPU host, best of 3, on 300 s cells mixing
#: Dual/Heuristic/CAPMAN rows (400 mAh, video and PCMark traces, three
#: phones): scalar vs fleet wall time was 0.020 vs 0.159 s at 1 row,
#: 0.18 vs 0.22 s at 8, 0.24 vs 0.25 s at 12, 0.43 vs 0.27 s at 16 and
#: 1.71 vs 0.35 s at 72.  The crossover sits near 12 rows; 16 leaves
#: a margin on either side of it.
FLEET_MIN_ROWS = 16


def _run_fleet_batch(
    cells: Sequence[ScenarioCell],
) -> Optional[List[Tuple[int, CellOutcome, float, int]]]:
    """Run eligible cells as one vectorised batch.

    Returns the same ``(index, outcome, seconds, steps)`` tuples as
    :func:`~repro.sim.executors.timed_cell`; the batch wall time is
    amortised evenly over its cells so :class:`SimStats` totals stay
    meaningful.  Returns None if the batch raised: batching is an
    optimisation, never a new failure mode, so the caller reruns the
    cells on the scalar engine and counts the fallback.
    """
    from ..fleet import DeviceSpec, FleetSpec

    started = time.perf_counter()
    try:
        spec = FleetSpec([
            DeviceSpec(policy=cell.policy, trace=cell.trace,
                       profile=cell.profile, control_dt=cell.control_dt,
                       max_duration_s=cell.max_duration_s,
                       ambient_c=cell.ambient_c,
                       record_every=cell.record_every)
            for cell in cells])
        results = spec.build().run()
    except Exception:
        _log.warning("fleet batch of %d cells failed; rerunning them on "
                     "the scalar engine", len(cells), exc_info=True)
        return None
    elapsed = (time.perf_counter() - started) / len(cells)
    return [(cell.index, result, elapsed, result.step_count)
            for cell, result in zip(cells, results)]


def _committed_entry(base: Path, data: Mapping[str, Any]) -> bytes:
    """The result bytes a ``cell_commit`` record points at.

    ``data["pack"]`` is relative to ``base``, the journal's directory.
    A missing pack, a short read or a digest mismatch raises
    :class:`JournalError` naming the pack and the cell: recomputing
    would commit the cell a second time.
    """
    pack = base / data["pack"]
    index, length = data["index"], data["length"]
    try:
        with open(pack, "rb") as fh:
            fh.seek(data["offset"])
            blob = fh.read(length)
    except OSError as exc:
        raise JournalError(
            f"cell {index}: cannot read its committed result from "
            f"{pack}: {exc}") from exc
    if len(blob) != length:
        raise JournalError(
            f"cell {index}: {pack} holds {len(blob)} of the {length} "
            f"bytes of its committed result")
    if hashlib.sha256(blob).hexdigest() != data["sha256"]:
        raise JournalError(
            f"cell {index}: the committed result in {pack} does not "
            f"match its sha256")
    return blob


class ScenarioRunner:
    """Executes a :class:`SweepSpec` with optional caching.

    Parameters
    ----------
    workers:
        Only ``None`` or 1 is accepted; any other value raises
        ``ValueError``.  Every sweep runs in this process.  The
        parameter stays only because the repository benchmark under
        ``benchmarks/perf/`` still passes ``workers=1``.
    cache:
        A :class:`SweepCache`, a directory path for one, or ``None``
        to disable caching.  Failed cells are never cached.
    salt:
        Cache-key salt override; defaults to :func:`code_salt` so code
        edits invalidate old entries.
    journal:
        Optional path of a write-ahead run journal.  :meth:`run` then
        records every cell start and every committed result durably
        (fsync'd before it goes on; records that land together share
        one fsync), and :meth:`resume` can continue the sweep
        after a crash/SIGKILL without recomputing committed cells.
        A commit record points at its result's bytes in a pack written
        (and fsync'd) just before it: the cache's pack, or, without a
        cache or for results carrying obs telemetry, a pack under
        ``<journal>.d/``.  In-flight cells checkpoint into sidecar
        files in that directory and restart from their last checkpoint.
    checkpoint_every_steps:
        Sidecar-checkpoint cadence, in control steps, for journalled
        cells (0 disables in-cell checkpoints; commit-level durability
        still applies).  For "daily" sweeps checkpoints land at day
        boundaries regardless of cadence.
    executor:
        A :class:`~repro.sim.executors.LocalProcessExecutor` (or a
        subclass) to run the pending cells, or ``None`` for a fresh
        one.  An explicit executor turns the fleet batch off: every
        pending cell goes to it, which is how tests force the scalar
        oracle.

    Exceptions raised inside a cell are contained, never retried.

    No wall-clock bound is applied to a cell: its work is bounded by
    its inputs, at most ``ceil(max_duration_s / control_dt)`` full
    control steps per cycle plus one tail step per trace segment.

    Engine choice is automatic.  When no ``executor`` is passed,
    journalled cells write no sidecar checkpoints
    (``checkpoint_every_steps`` is 0) and obs is off, the pending
    fleet-supported discharge cells run in this process as one
    vectorised :class:`repro.fleet.FleetSimulator` batch -- provided
    there are at least :data:`FLEET_MIN_ROWS` of them.  Their results are
    bit-for-bit the scalar ones; every other cell runs serially on the
    scalar engine, which stays the oracle.  ``SimStats.cells_fleet``
    and ``SimStats.fleet_fallbacks`` count the choice.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: Union[SweepCache, str, Path, None] = None,
        salt: Optional[str] = None,
        journal: Union[str, Path, None] = None,
        checkpoint_every_steps: int = 0,
        executor: Optional[LocalProcessExecutor] = None,
    ) -> None:
        if workers not in (None, 1):
            raise ValueError(
                f"workers={workers!r}: the sweep process pool was removed; "
                f"every sweep runs in this process, so workers may only "
                f"be None or 1")
        if cache is not None and not isinstance(cache, SweepCache):
            cache = SweepCache(cache)
        self.cache = cache
        self._salt = salt
        self.executor = executor
        self.journal = Path(journal) if journal is not None else None
        if checkpoint_every_steps < 0:
            raise ValueError("checkpoint_every_steps must be non-negative")
        self.checkpoint_every_steps = checkpoint_every_steps
        #: ``(spec, salt, keys)``: cell keys a caller already hashed for
        #: that spec object under that salt (the service hashes a grid
        #: once, for its job id), used instead of rehashing.
        self._known_keys: Optional[Tuple[SweepSpec, str, List[str]]] = None
        #: Guards the per-cell state map behind :meth:`progress`.
        self._progress_lock = threading.Lock()
        self._cell_states: Dict[int, str] = {}
        self._cell_labels: Dict[int, str] = {}

    # ------------------------------------------------------------------
    def _set_state(self, index: int, state: str) -> None:
        with self._progress_lock:
            # A terminal state never regresses to "running": a late
            # dispatch notification (an executor whose ``on_start``
            # lands after the cell's commit) must not make a finished
            # cell look active.
            if (state == "running"
                    and self._cell_states.get(index) in _TERMINAL_OK
                    + ("failed",)):
                return
            self._cell_states[index] = state

    def progress(self) -> SweepProgress:
        """Thread-safe snapshot of the current sweep's cell states.

        Callable from any thread while :meth:`run` /
        :meth:`run_or_resume` executes on another; before the first run
        (or after constructing the runner) the snapshot is empty.
        """
        with self._progress_lock:
            states = dict(self._cell_states)
            labels = dict(self._cell_labels)
        return SweepProgress(
            total=len(states),
            queued=sum(1 for s in states.values() if s == "queued"),
            running=sum(1 for s in states.values() if s == "running"),
            done=sum(1 for s in states.values() if s in _TERMINAL_OK),
            failed=sum(1 for s in states.values() if s == "failed"),
            cells=states,
            labels=labels,
        )

    # ------------------------------------------------------------------
    def run(self, spec: SweepSpec) -> SweepResult:
        """Execute every cell of ``spec``; see the class docstring."""
        if self.journal is None:
            return self._run(spec, journal=None, committed={}, salt=None)
        if self.journal.exists() and self.journal.stat().st_size > 0:
            raise JournalError(
                f"journal {self.journal} already has records; call "
                f"ScenarioRunner.resume() to continue that sweep, or "
                f"delete the journal to start over")
        salt = self._salt if self._salt is not None else code_salt()
        with RunJournal(self.journal) as journal:
            # Written with the cell starts, in one fsync.
            head = ("sweep_start", {
                "spec": encode_blob(pickle.dumps(spec, protocol=4)),
                "salt": salt,
                "n_cells": len(spec),
                "kind": spec.kind,
            })
            return self._run(spec, journal=journal, committed={}, salt=salt,
                             head=head)

    def resume(self, journal: Union[str, Path, None] = None) -> SweepResult:
        """Continue a journalled sweep after a crash or kill.

        Replays the journal (recovering any torn tail by truncation),
        reconstructs the spec and key salt from the ``sweep_start``
        header, fills every committed cell's result slot straight from
        the bytes its commit record points at (checked against the
        record's sha256) -- byte-identical, never recomputed -- and
        runs only the remainder.  A cell the journal started but did
        not commit is recomputed, never taken from the cache, so it
        still gets its one commit.  Half-done cells restart from their
        sidecar checkpoints.  The journal keeps extending, so resume
        is itself resumable.  Commits that carry their result inline
        (base64 ``result``), as journals written before commits
        pointed into packs do, still replay.
        """
        path = Path(journal) if journal is not None else self.journal
        if path is None:
            raise JournalError(
                "no journal to resume: pass a path or construct the "
                "runner with journal=...")
        records = RunJournal.replay(path)
        if not records or records[0]["type"] != "sweep_start":
            raise JournalError(
                f"{path} is not a sweep journal (missing sweep_start "
                f"header record)")
        head = records[0]["data"]
        spec: SweepSpec = pickle.loads(decode_blob(head["spec"]))
        committed: Dict[int, bytes] = {}
        started: Set[int] = set()
        for record in records[1:]:
            # Other record types (the dispatch records older journals
            # carry) hold nothing to restore.
            data = record["data"]
            if record["type"] == "cell_start":
                started.add(data["index"])
            elif record["type"] == "cell_commit":
                committed[data["index"]] = (
                    decode_blob(data["result"]) if "result" in data
                    else _committed_entry(path.parent, data))
        with RunJournal(path) as live:
            return self._run(spec, journal=live, committed=committed,
                             salt=head["salt"],
                             uncached=started.difference(committed))

    def run_or_resume(self, spec: SweepSpec) -> SweepResult:
        """Run ``spec``, or resume the runner's journal if it has records.

        The idempotent entry point for batch jobs: the first invocation
        starts a journalled sweep, a re-invocation after a crash (or a
        kill) picks up where the journal left off.  On resume the
        journal's recorded spec governs -- it froze the sweep's identity
        at ``sweep_start`` -- so ``spec`` is only consulted for a sanity
        check that the caller is re-running the same grid shape.
        """
        if self.journal is not None and self.journal.exists() \
                and self.journal.stat().st_size > 0:
            result = self.resume()
            if len(result.results) != len(spec):
                raise JournalError(
                    f"journal {self.journal} records a {len(result.results)}-"
                    f"cell sweep but the caller passed a {len(spec)}-cell "
                    f"spec; delete the journal to start the new sweep")
            return result
        return self.run(spec)

    # ------------------------------------------------------------------
    def _fleet_batch(self, pending: Sequence[ScenarioCell],
                     journal: Optional[RunJournal],
                     observing: bool) -> List[ScenarioCell]:
        """The pending cells that run as one fleet batch (maybe none).

        The fleet engine runs a batch in this process with no sidecar
        checkpoints and no per-cycle telemetry, so the batch forms only
        where neither is asked for, and only when it is big enough to
        beat the scalar engine (:data:`FLEET_MIN_ROWS`).  The cheap
        gates run first: :func:`repro.fleet.unsupported_reason` builds
        a throwaway pack, which can be slow, so it runs once per
        distinct policy object, and each rejected policy's reason is
        logged once.
        """
        if (self.executor is not None
                or (journal is not None and self.checkpoint_every_steps)
                or observing or len(pending) < FLEET_MIN_ROWS):
            return []
        from ..fleet import unsupported_reason

        reasons: Dict[int, Optional[str]] = {}
        batch: List[ScenarioCell] = []
        for cell in pending:
            if cell.kind != "discharge" or cell.extra:
                continue
            key = id(cell.policy)
            if key not in reasons:
                reason = reasons[key] = unsupported_reason(cell.policy)
                if reason is not None:
                    _log.info("policy %r runs on the scalar engine: %s",
                              cell.policy_key, reason)
            if reasons[key] is None:
                batch.append(cell)
        return batch if len(batch) >= FLEET_MIN_ROWS else []

    def _run(self, spec: SweepSpec, journal: Optional[RunJournal],
             committed: Dict[int, bytes],
             salt: Optional[str],
             head: Optional[Tuple[str, Dict[str, Any]]] = None,
             uncached: AbstractSet[int] = frozenset()) -> SweepResult:
        """Run ``spec``; ``committed`` maps the journal's committed cell
        indices to their recorded result pickles.  ``head`` is the
        journal header a fresh run writes with its cell starts;
        ``uncached`` are cells that skip the cache lookup (started in
        the journal, never committed)."""
        run_started = time.perf_counter()
        stats = SimStats()

        # Observability (default off).  One scope spans the sweep;
        # computed cells nest their cycle scopes inside it, while
        # resumed cells carry their blobs in the journalled results
        # and are folded in below.
        ob = obs.session()
        observing = ob is not None
        if observing:
            scope = ob.scope("sweep", spec.kind)
            sweep_span = ob.tracer.start("sweep", kind=spec.kind,
                                         cells=len(spec))
        resumed_blobs: List[obs.RunTelemetry] = []
        telemetry: Optional[obs.RunTelemetry] = None

        try:
            expand_started = time.perf_counter()
            cells = spec.expand()
            stats.cells_total = len(cells)
            with self._progress_lock:
                self._cell_states = {cell.index: "queued" for cell in cells}
                self._cell_labels = {cell.index: cell.label for cell in cells}
            keys: List[Optional[str]] = [None] * len(cells)
            if self.cache is not None or journal is not None:
                if salt is None:
                    salt = self._salt if self._salt is not None else code_salt()
                known = self._known_keys
                if (known is not None and known[0] is spec
                        and known[1] == salt):
                    keys = known[2]
                else:
                    keys = cell_keys(cells, salt)
            stats.expand_wall_s = time.perf_counter() - expand_started

            results: List[Optional[CellResult]] = [None] * len(cells)
            # Each outcome is pickled (protocol 4) at most once: its
            # commit's pack entry and its cache entry share these bytes.
            pickled: Dict[int, bytes] = {}

            def pickle_of(index: int, outcome: CellOutcome) -> bytes:
                blob = pickled.get(index)
                if blob is None:
                    blob = pickled[index] = pickle.dumps(outcome, protocol=4)
                return blob

            pending: List[ScenarioCell] = []
            cache_started = time.perf_counter()
            for cell in cells:
                if cell.index in committed:
                    # Journalled and durable: the recorded result is the
                    # result -- recomputing it is exactly what the
                    # write-ahead log exists to prevent.
                    result = results[cell.index] = pickle.loads(
                        committed[cell.index])
                    stats.cells_resumed += 1
                    self._set_state(cell.index, "resumed")
                    if observing:
                        telemetry_blob = getattr(result, "telemetry", None)
                        if telemetry_blob is not None:
                            resumed_blobs.append(telemetry_blob)
                    continue
                if self.cache is not None and cell.index not in uncached:
                    hit = self.cache.get(keys[cell.index])  # type: ignore[arg-type]
                    if hit is not None:
                        results[cell.index] = hit
                        stats.cache_hits += 1
                        self._set_state(cell.index, "cached")
                        continue
                    stats.cache_misses += 1
                pending.append(cell)
            if self.cache is not None:
                stats.cache_wall_s += time.perf_counter() - cache_started

            ckpts: Dict[int, str] = {}
            # Cells continuing from a sidecar: the scalar engine resumes
            # them mid-cycle, so they never join a fleet batch.
            resumable: Set[int] = set()
            if journal is not None:
                sidecar_dir = Path(str(journal.path) + ".d")
                journal_dir = journal.path.parent
                for cell in pending:
                    sidecar = sidecar_dir / f"cell-{keys[cell.index][:16]}.ckpt"  # type: ignore[index]
                    ckpts[cell.index] = str(sidecar)
                    if sidecar.exists():
                        stats.cells_checkpoint_resumed += 1
                        resumable.add(cell.index)
                journal.append_many(itertools.chain(
                    [head] if head is not None else [],
                    (("cell_start", {"index": cell.index,
                                     "key": keys[cell.index],
                                     "label": cell.label})
                     for cell in pending)))
            #: Computed cells whose commit already put them in the cache.
            packed: Set[int] = set()

            def _pack(commits: Sequence[Tuple[int, CellOutcome]]
                      ) -> Tuple[Path, Dict[int, Tuple[int, int]]]:
                """Write a commit group's pickles as one durable pack;
                its path and each cell's ``(offset, length)`` in it.

                The pack goes to the cache unless a result carries obs
                telemetry (a cache entry's bytes are a pure function of
                its key) or there is no cache; then it goes to
                ``<journal>.d/``, keyed by cell index.
                """
                blobs = {index: pickle_of(index, outcome)
                         for index, outcome in commits}
                if self.cache is not None and all(
                        getattr(outcome, "telemetry", None) is None
                        for _, outcome in commits):
                    started = time.perf_counter()
                    placed = self.cache.put({keys[index]: blob  # type: ignore[misc]
                                             for index, blob in blobs.items()})
                    stats.cache_wall_s += time.perf_counter() - started
                    packed.update(blobs)
                    path = placed[keys[commits[0][0]]][0]  # type: ignore[index]
                    return path, {index: placed[keys[index]][1:]  # type: ignore[index]
                                  for index in blobs}
                sidecar_dir.mkdir(parents=True, exist_ok=True)
                names = sorted(map(str, blobs))
                name, _, spots = _write_pack(
                    str(sidecar_dir), names,
                    [blobs[int(index)] for index in names])
                return sidecar_dir / name, {int(index): spot
                                            for index, spot in spots.items()}

            def _finalise(items: Sequence[Tuple[int, CellOutcome]]) -> None:
                """Durably commit final outcomes that land together.

                The group's pickles go to one pack first; its commit
                records, which point into the pack, then go to the
                journal in one append.  Failures are deliberately not
                committed -- a resume retries them -- and a committed
                cell's sidecar checkpoint is deleted: the commit record
                supersedes it.
                """
                commits: List[Tuple[int, CellOutcome]] = []
                for index, outcome in items:
                    failed = isinstance(outcome, CellFailure)
                    self._set_state(index, "failed" if failed else "done")
                    if journal is not None and not failed:
                        commits.append((index, outcome))
                if not commits:
                    return
                path, spots = _pack(commits)
                pack = os.path.relpath(path, journal_dir)
                journal.append_many(
                    ("cell_commit", {
                        "index": index,
                        "key": keys[index],
                        "pack": pack,
                        "offset": spots[index][0],
                        "length": spots[index][1],
                        "sha256": hashlib.sha256(
                            pickle_of(index, outcome)).hexdigest(),
                    })
                    for index, outcome in commits)
                for index, _ in commits:
                    sidecar = ckpts.get(index)
                    if sidecar is not None:
                        try:
                            os.unlink(sidecar)
                        except OSError:
                            pass

            computed: List[Tuple[int, CellOutcome, float, int]] = []
            fleet_batch = self._fleet_batch(
                [cell for cell in pending if cell.index not in resumable],
                journal, observing)
            if fleet_batch:
                for cell in fleet_batch:
                    self._set_state(cell.index, "running")
                fleet_items = _run_fleet_batch(fleet_batch)
                if fleet_items is None:
                    stats.fleet_fallbacks += 1
                    for cell in fleet_batch:
                        self._set_state(cell.index, "queued")
                else:
                    stats.cells_fleet += len(fleet_items)
                    _finalise([(index, outcome)
                               for index, outcome, _, _ in fleet_items])
                    computed.extend(fleet_items)
                    taken = {cell.index for cell in fleet_batch}
                    pending = [cell for cell in pending
                               if cell.index not in taken]

            if pending:
                executor = self.executor or LocalProcessExecutor()
                ctx = ExecutionContext(
                    ckpts=ckpts,
                    checkpoint_every_steps=self.checkpoint_every_steps,
                    on_final=lambda index, outcome: _finalise(
                        [(index, outcome)]),
                    on_start=lambda index: self._set_state(
                        index, "running"),
                )
                executor.attach(ctx)
                try:
                    computed.extend(executor.run(pending))
                finally:
                    executor.detach()
                stats.executor = executor.name
            for index, result, elapsed, steps in computed:
                results[index] = result
                stats.compute_wall_s += elapsed
                stats.steps_total += steps
                stats.cells_computed += 1
                if isinstance(result, CellFailure):
                    stats.cells_failed += 1
            if self.cache is not None and len(packed) < len(computed):
                cache_started = time.perf_counter()
                entries: Dict[str, Union[CellResult, bytes]] = {}
                for index, result, _, _ in computed:
                    if (not isinstance(result, CellFailure)
                            and index not in packed):
                        # Telemetry is run-local observability, not
                        # simulated outcome: cache entries are stored
                        # without it so a later (possibly obs-off) run
                        # never replays another run's counters.
                        if getattr(result, "telemetry", None) is not None:
                            entry: Union[CellResult, bytes] = \
                                dataclasses.replace(result, telemetry=None)
                        else:
                            entry = pickle_of(index, result)
                        entries[keys[index]] = entry  # type: ignore[index]
                # One pack per run for what the commits did not pack:
                # everything when unjournalled, else the results that
                # carry telemetry.
                self.cache.put(entries)
                stats.cache_wall_s += time.perf_counter() - cache_started

            stats.total_wall_s = time.perf_counter() - run_started
        finally:
            # Harvest in the finally so an aborted sweep (journal error,
            # keyboard interrupt) still closes the scope and keeps the
            # session's scope stack sound.
            if observing:
                sweep_span.finish()
                reg = scope.registry
                for name, value in stats.as_dict().items():
                    if (name == "steps_per_sec"
                            or not isinstance(value, (int, float))):
                        continue
                    reg.counter(f"sweep.{name}").inc(value)
                telemetry = scope.telemetry()
                for blob in resumed_blobs:
                    telemetry = telemetry.merge(blob)
                scope.close()
                ob.export_telemetry(telemetry)
        return SweepResult(cells=cells, results=list(results),  # type: ignore[arg-type]
                           stats=stats, telemetry=telemetry)

