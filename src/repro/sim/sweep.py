"""Parallel scenario-sweep engine for the evaluation grids.

The paper's whole evaluation surface -- Figures 12-15, the daily-wear
extension and the headline numbers -- is a grid of scenarios: policies
x traces x phone profiles (x control step x ambient), each cell one
independent discharge cycle (or multi-day run).  This module turns
that implicit pattern into an explicit engine:

* :class:`SweepSpec` declares the grid and expands it into
  :class:`ScenarioCell` rows in a deterministic order;
* :class:`ScenarioRunner` executes the cells -- serially, fanned out
  over a ``ProcessPoolExecutor``, or, for a big enough in-process
  batch, as rows of one vectorised fleet simulation -- with results
  returned in spec order and identical on every path;
* an optional on-disk cache keyed by a content hash of the scenario
  configuration plus a code-version salt lets a re-run recompute only
  the cells whose inputs actually changed;
* :class:`SimStats` reports throughput (control steps/s), per-phase
  wall times and cache hit/miss counts next to the results;
* failures are contained per cell: a raising cell (or one that blows
  its per-cell timeout) comes back as a :class:`CellFailure` carrying
  the traceback, and a killed worker (``BrokenProcessPool``) triggers
  bounded retries in isolated single-cell pools -- the rest of the
  grid always completes, and failed cells are never cached;
* an optional write-ahead run journal
  (:class:`~repro.durability.journal.RunJournal`) makes the sweep
  itself crash-durable: every cell start and every committed result is
  an fsync'd record, long cells checkpoint mid-flight into sidecar
  files, and :meth:`ScenarioRunner.resume` continues a SIGKILL'd sweep
  without recomputing a single committed cell.

Every scenario cell is pure: it builds its own policy copy, pack and
phone, so cells never share mutable state.  That is what makes the
fan-out safe and the cache sound.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import logging
import os
import pickle
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Dict, Iterator, List, Mapping, Optional, Sequence,
                    Set, Tuple, Union)

import numpy as np

from .. import obs
from ..device.profiles import NEXUS, PhoneProfile
from ..durability.journal import JournalError, RunJournal, decode_blob, encode_blob
from ..durability.lock import FileLock
from ..workload.traces import Trace
from .daily import MultiDayResult
from .discharge import DischargeResult, SchedulingPolicy
from .executors import (CellFailure, CellTimeoutError, ExecutionContext,
                        LocalProcessExecutor, SweepExecutor,
                        choose_timeout_mechanism)
from .retry import DEFAULT_RETRY, RetryPolicy

__all__ = [
    "ScenarioCell",
    "SweepSpec",
    "SimStats",
    "SweepProgress",
    "SweepResult",
    "SweepCache",
    "ScenarioRunner",
    "CellFailure",
    "CellTimeoutError",
    "RetryPolicy",
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
    thereby the result ordering for any worker count.

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
class SweepCache:
    """Pickle-per-cell result cache with atomic writes.

    Corrupted or unreadable entries are treated as misses and deleted,
    so a torn write (or a foreign file) never poisons a sweep.  Writes
    additionally hold an advisory :class:`~repro.durability.lock.FileLock`
    on an adjacent ``.lock`` file, so two runners pointed at the same
    directory serialise their write sequences instead of interleaving
    them (the kernel releases the lock if a holder dies, so a crashed
    runner can never wedge the cache).
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: Advisory inter-process writer lock (reads stay lock-free).
        self.lock = FileLock(self.directory / ".lock")

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    def get(self, key: str) -> Optional[CellResult]:
        """The cached result, or None on miss/corruption."""
        path = self._path(key)
        try:
            with path.open("rb") as fh:
                return pickle.load(fh)
        except FileNotFoundError:
            return None
        except Exception:
            # Torn write / wrong format: recover by recomputing.
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def put(self, key: str, result: CellResult) -> None:
        """Store a result atomically (write-to-temp + rename, locked)."""
        path = self._path(key)
        with self.lock:
            fd, tmp = tempfile.mkstemp(dir=str(self.directory), suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.pkl"))


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
    #: Extra execution attempts spent on retries (worker deaths).
    cell_retries: int = 0
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
    #: Wall time spent running scenario cells (sum over workers, s).
    compute_wall_s: float = 0.0
    #: Wall time spent on cache reads/writes (s).
    cache_wall_s: float = 0.0
    #: End-to-end wall time of ``ScenarioRunner.run`` (s).
    total_wall_s: float = 0.0
    #: Backoff wall time spent waiting between retry attempts (s).
    backoff_wait_s: float = 0.0
    workers: int = 1
    #: Executor backend that ran the pending cells ("local",
    #: "distributed", ...; "none" when no executor ran because every
    #: cell came from cache, the journal or a fleet batch).
    executor: str = "none"
    #: Per-cell timeout mechanism for in-process execution: "none"
    #: (no budget), "sigalrm" (hard POSIX alarm) or "cooperative"
    #: (polled per-thread deadline; the off-main-thread / non-POSIX
    #: fallback).  Pool workers run cells on their own main threads,
    #: where the POSIX probe gives the same answer as the serial path.
    timeout_mechanism: str = "none"

    @property
    def steps_per_sec(self) -> float:
        """Simulated control steps per compute-second (serial-equivalent)."""
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
    :class:`CellFailure` when the cell raised, timed out or its worker
    died; ``failures``/``succeeded`` split the two.
    """

    cells: List[ScenarioCell]
    results: List[CellOutcome]
    stats: SimStats
    #: Merged observability blob of the whole sweep (None unless obs
    #: is enabled): the runner's own counters plus the fold of every
    #: computed cell's telemetry, identical totals for any worker
    #: count.  Out-of-band of the results -- excluded from equality.
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

    The batch honours the ``CAPMAN_FLEET_SHARDS`` env var: with a
    count above 1 the fleet row-shards across worker processes
    (:meth:`~repro.fleet.FleetSimulator.run_sharded`), with results
    byte-equal to the single-process run.
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
        results = spec.build().run_sharded()
    except Exception:
        _log.warning("fleet batch of %d cells failed; rerunning them on "
                     "the scalar engine", len(cells), exc_info=True)
        return None
    elapsed = (time.perf_counter() - started) / len(cells)
    return [(cell.index, result, elapsed, result.step_count)
            for cell, result in zip(cells, results)]


class ScenarioRunner:
    """Executes a :class:`SweepSpec` with optional fan-out and caching.

    Parameters
    ----------
    workers:
        Process count; ``None`` or 1 runs serially in-process,  ``0``
        means ``os.cpu_count()``.  Results are returned in spec order
        and are identical for every worker count.
    cache:
        A :class:`SweepCache`, a directory path for one, or ``None``
        to disable caching.  Failed cells are never cached.
    salt:
        Cache-key salt override; defaults to :func:`code_salt` so code
        edits invalidate old entries.
    cell_timeout_s:
        Optional positive per-cell wall-clock budget; a cell over
        budget is reported as a :class:`CellFailure`
        (``CellTimeoutError``).  The mechanism actually used (hard
        SIGALRM on POSIX main threads, cooperative polled deadline
        elsewhere) is surfaced as ``SimStats.timeout_mechanism``.
    journal:
        Optional path of a write-ahead run journal.  :meth:`run` then
        records every cell start and every committed result durably
        (fsync'd before it goes on; records that land together share
        one fsync), and :meth:`resume` can continue the sweep
        after a crash/SIGKILL without recomputing committed cells.
        In-flight cells checkpoint into sidecar files under
        ``<journal>.d/`` and restart from their last checkpoint.
    checkpoint_every_steps:
        Sidecar-checkpoint cadence, in control steps, for journalled
        cells (0 disables in-cell checkpoints; commit-level durability
        still applies).  For "daily" sweeps checkpoints land at day
        boundaries regardless of cadence.
    retry:
        The :class:`~repro.sim.retry.RetryPolicy` (max attempts,
        exponential backoff, deterministic seeded jitter) governing
        infrastructure retries: a cell whose *worker died*
        (``BrokenProcessPool``) reruns in an isolated single-cell pool
        so a crash-looping cell cannot take healthy cells down with
        it.  Exceptions raised *inside* a cell are deterministic
        simulator failures and are reported immediately without retry.
        The default allows one immediate retry, with no waiting.
    executor:
        A :class:`~repro.sim.executors.SweepExecutor` backend, or
        ``None`` for the default
        :class:`~repro.sim.executors.LocalProcessExecutor` (serial /
        process-pool, governed by ``workers``).  The distributed TCP
        backend lives in :mod:`repro.sim.distributed`.

    Engine choice is automatic.  When the runner executes in-process
    (no ``executor``, one worker), no per-cell bound is set
    (``cell_timeout_s`` is None), journalled cells write no sidecar
    checkpoints (``checkpoint_every_steps`` is 0) and obs is off, the
    pending fleet-supported discharge cells run as one vectorised
    :class:`repro.fleet.FleetSimulator` batch -- provided there are at
    least :data:`FLEET_MIN_ROWS` of them.  Their
    results are bit-for-bit the scalar ones; every other cell runs on
    the scalar engine, which stays the oracle.  ``SimStats.cells_fleet``
    and ``SimStats.fleet_fallbacks`` count the choice.  Setting the
    ``CAPMAN_FLEET_SHARDS`` env var above 1 row-shards each fleet batch
    across worker processes (results unchanged, byte for byte).
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: Union[SweepCache, str, Path, None] = None,
        salt: Optional[str] = None,
        cell_timeout_s: Optional[float] = None,
        journal: Union[str, Path, None] = None,
        checkpoint_every_steps: int = 0,
        retry: RetryPolicy = DEFAULT_RETRY,
        executor: Optional[SweepExecutor] = None,
    ) -> None:
        if workers == 0:
            workers = os.cpu_count() or 1
        self.workers = max(1, workers or 1)
        if cache is not None and not isinstance(cache, SweepCache):
            cache = SweepCache(cache)
        self.cache = cache
        self._salt = salt
        self.retry = retry
        self.cell_timeout_s = cell_timeout_s
        self.executor = executor
        self.journal = Path(journal) if journal is not None else None
        if cell_timeout_s is not None and cell_timeout_s <= 0:
            raise ValueError("cell_timeout_s must be positive")
        if checkpoint_every_steps < 0:
            raise ValueError("checkpoint_every_steps must be non-negative")
        self.checkpoint_every_steps = checkpoint_every_steps
        #: Guards the per-cell state map behind :meth:`progress`.
        self._progress_lock = threading.Lock()
        self._cell_states: Dict[int, str] = {}
        self._cell_labels: Dict[int, str] = {}

    # ------------------------------------------------------------------
    def _set_state(self, index: int, state: str) -> None:
        with self._progress_lock:
            # A terminal state never regresses to "running": a late
            # dispatch notification (e.g. a re-granted lease racing its
            # own commit) must not make a finished cell look active.
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
            journal.append("sweep_start", {
                "spec": encode_blob(pickle.dumps(spec, protocol=4)),
                "salt": salt,
                "n_cells": len(spec),
                "kind": spec.kind,
            })
            return self._run(spec, journal=journal, committed={}, salt=salt)

    def resume(self, journal: Union[str, Path, None] = None) -> SweepResult:
        """Continue a journalled sweep after a crash or kill.

        Replays the journal (recovering any torn tail by truncation),
        reconstructs the spec and key salt from the ``sweep_start``
        header, fills every committed cell's result slot straight from
        its commit record -- byte-identical, never recomputed -- and
        runs only the remainder.  Half-done cells restart from their
        sidecar checkpoints.  The journal keeps extending, so resume
        is itself resumable.
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
        committed: Dict[int, CellResult] = {}
        grants: Dict[int, int] = {}
        for record in records[1:]:
            data = record["data"]
            if record["type"] == "cell_commit":
                committed[data["index"]] = pickle.loads(
                    decode_blob(data["result"]))
            elif record["type"] == "lease_grant" \
                    and not data.get("duplicate", False):
                grants[data["index"]] = grants.get(data["index"], 0) + 1
        # A grant that later committed consumed its attempt normally;
        # only journalled-but-uncommitted grants are orphans of the
        # dead coordinator and must charge the cell's failure budget.
        replayed = {index: count for index, count in grants.items()
                    if index not in committed}
        with RunJournal(path) as live:
            return self._run(spec, journal=live, committed=committed,
                             salt=head["salt"], replayed_grants=replayed)

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

        The fleet engine runs a batch in this process with no per-row
        wall-clock bound, no sidecar checkpoints and no per-cycle
        telemetry, so the batch forms only where none of those is
        asked for, and only when it is big enough to beat the scalar
        engine (:data:`FLEET_MIN_ROWS`).  The cheap gates run first:
        :func:`repro.fleet.unsupported_reason` builds a throwaway pack,
        which can be slow, so it runs once per distinct policy object,
        and each rejected policy's reason is logged once.
        """
        if (self.executor is not None or self.workers != 1
                or self.cell_timeout_s is not None
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
             committed: Dict[int, CellResult],
             salt: Optional[str],
             replayed_grants: Optional[Dict[int, int]] = None) -> SweepResult:
        run_started = time.perf_counter()
        stats = SimStats(workers=self.workers)
        stats.timeout_mechanism = choose_timeout_mechanism(
            self.cell_timeout_s)

        # Observability (default off).  One scope spans the sweep;
        # serially computed cells nest their cycle scopes inside it,
        # while remote/resumed cells ship their blobs back on the
        # results and are folded in below -- the merged totals are
        # identical for any worker count.
        ob = obs.session()
        observing = ob is not None
        if observing:
            scope = ob.scope("sweep", spec.kind)
            sweep_span = ob.tracer.start("sweep", kind=spec.kind,
                                         cells=len(spec))
        remote_blobs: List[obs.RunTelemetry] = []
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
                keys = cell_keys(cells, salt)
            stats.expand_wall_s = time.perf_counter() - expand_started

            results: List[Optional[CellResult]] = [None] * len(cells)
            pending: List[ScenarioCell] = []
            cache_started = time.perf_counter()
            for cell in cells:
                if cell.index in committed:
                    # Journalled and durable: the recorded result is the
                    # result -- recomputing it is exactly what the
                    # write-ahead log exists to prevent.
                    results[cell.index] = committed[cell.index]
                    stats.cells_resumed += 1
                    self._set_state(cell.index, "resumed")
                    if observing:
                        blob = getattr(committed[cell.index], "telemetry", None)
                        if blob is not None:
                            remote_blobs.append(blob)
                    continue
                if self.cache is not None:
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
            if journal is not None and pending:
                sidecar_dir = Path(str(journal.path) + ".d")
                for cell in pending:
                    sidecar = sidecar_dir / f"cell-{keys[cell.index][:16]}.ckpt"  # type: ignore[index]
                    ckpts[cell.index] = str(sidecar)
                    if sidecar.exists():
                        stats.cells_checkpoint_resumed += 1
                        resumable.add(cell.index)
                journal.append_many(
                    ("cell_start", {"index": cell.index,
                                    "key": keys[cell.index],
                                    "label": cell.label})
                    for cell in pending)

            def _finalise(items: Sequence[Tuple[int, CellOutcome]]) -> None:
                """Durably commit final outcomes that land together.

                The commits go to the journal as one group.  Failures
                are deliberately not committed -- a resume retries them
                -- and a committed cell's sidecar checkpoint is deleted:
                the commit record supersedes it.
                """
                commits: List[Tuple[int, CellOutcome]] = []
                for index, outcome in items:
                    failed = isinstance(outcome, CellFailure)
                    self._set_state(index, "failed" if failed else "done")
                    if journal is not None and not failed:
                        commits.append((index, outcome))
                if not commits:
                    return
                journal.append_many(
                    ("cell_commit", {
                        "index": index,
                        "key": keys[index],
                        "result": encode_blob(pickle.dumps(
                            outcome, protocol=4)),
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
                executor = self.executor or LocalProcessExecutor(
                    self.workers)
                ctx = ExecutionContext(
                    cell_timeout_s=self.cell_timeout_s,
                    ckpts=ckpts,
                    checkpoint_every_steps=self.checkpoint_every_steps,
                    retry=self.retry,
                    workers=self.workers,
                    obs_enabled=observing,
                    on_final=lambda index, outcome: _finalise(
                        [(index, outcome)]),
                    stats=stats,
                    journal_append=(journal.append
                                    if journal is not None else None),
                    replayed_grants=dict(replayed_grants or {}),
                    on_start=lambda index: self._set_state(
                        index, "running"),
                )
                executor.attach(ctx)
                try:
                    computed.extend(executor.run(pending))
                finally:
                    executor.detach()
                stats.executor = executor.name
                if observing:
                    # Serially computed cells already merged their
                    # cycle scopes into the sweep scope in-process;
                    # remote cells ship their blobs on the result,
                    # and the executor tells them apart.
                    remote_blobs.extend(executor.remote_blobs())
            for index, result, elapsed, steps in computed:
                results[index] = result
                stats.compute_wall_s += elapsed
                stats.steps_total += steps
                stats.cells_computed += 1
                if isinstance(result, CellFailure):
                    stats.cells_failed += 1
            if self.cache is not None and computed:
                cache_started = time.perf_counter()
                for index, result, _, _ in computed:
                    if not isinstance(result, CellFailure):
                        # Telemetry is run-local observability, not
                        # simulated outcome: cache entries are stored
                        # without it so a later (possibly obs-off) run
                        # never replays another run's counters.
                        if getattr(result, "telemetry", None) is not None:
                            result = dataclasses.replace(result,
                                                         telemetry=None)
                        self.cache.put(keys[index], result)  # type: ignore[arg-type]
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
                    # backoff_wait_s (and sweep.retries) are counted
                    # live by ExecutionContext.count_retry at retry
                    # time; exporting the stats field again would
                    # double-count them.
                    if (name in ("workers", "steps_per_sec",
                                 "backoff_wait_s")
                            or not isinstance(value, (int, float))):
                        continue
                    reg.counter(f"sweep.{name}").inc(value)
                telemetry = scope.telemetry()
                for blob in remote_blobs:
                    telemetry = telemetry.merge(blob)
                scope.close()
                ob.export_telemetry(telemetry)
        return SweepResult(cells=cells, results=list(results), stats=stats,  # type: ignore[arg-type]
                           telemetry=telemetry)

