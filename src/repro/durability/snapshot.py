"""Checksummed, schema-versioned simulation checkpoints.

A :class:`SimCheckpoint` composes the ``state_dict()`` of every
stateful component of a run into one payload, stamps it with the
durability schema version and a SHA-256 content checksum, and writes
it atomically (temp file + fsync + rename) so a crash mid-write can
never leave a half-checkpoint where a good one used to be.  Loading
verifies the checksum before any state is offered to a component, so
a torn or bit-flipped checkpoint is detected, not silently restored.

The float payloads ride through :mod:`pickle` (protocol 4, pinned for
cross-version stability), which round-trips IEEE doubles exactly --
the foundation of the bit-identical-resume contract.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

from .. import obs

__all__ = [
    "SCHEMA_VERSION",
    "CheckpointError",
    "ChecksumError",
    "SimCheckpoint",
    "Checkpointer",
]

#: Version of the overall checkpoint container layout.
SCHEMA_VERSION = 1

#: File magic; the trailing digit is the container version.
_MAGIC = b"CAPCKPT1"

#: Pickle protocol pinned for stable bytes across Python versions >=3.8.
_PICKLE_PROTOCOL = 4


class CheckpointError(RuntimeError):
    """A checkpoint could not be created, written or read."""


class ChecksumError(CheckpointError):
    """A checkpoint's content checksum did not verify (torn/corrupt)."""


def _digest(kind: str, schema_version: int, payload: Dict[str, Any]) -> str:
    blob = pickle.dumps((schema_version, kind, payload), protocol=_PICKLE_PROTOCOL)
    return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class SimCheckpoint:
    """One full-state snapshot of a run.

    ``kind`` names the producing harness ("discharge", "daily", ...);
    ``payload`` maps component names to their packed state dicts (see
    :mod:`repro.durability.state`); ``checksum`` covers the schema
    version, kind and payload together.
    """

    kind: str
    payload: Dict[str, Any] = field(repr=False)
    schema_version: int = SCHEMA_VERSION
    checksum: str = ""

    @classmethod
    def create(cls, kind: str, payload: Dict[str, Any]) -> "SimCheckpoint":
        """Build a checkpoint, computing its content checksum."""
        return cls(kind=kind, payload=payload, schema_version=SCHEMA_VERSION,
                   checksum=_digest(kind, SCHEMA_VERSION, payload))

    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Raise :class:`ChecksumError` unless the checksum matches."""
        if self.schema_version != SCHEMA_VERSION:
            raise CheckpointError(
                f"checkpoint schema v{self.schema_version} is not the "
                f"supported v{SCHEMA_VERSION}")
        expected = _digest(self.kind, self.schema_version, self.payload)
        if expected != self.checksum:
            raise ChecksumError(
                f"checkpoint checksum mismatch ({self.checksum[:12]}... vs "
                f"recomputed {expected[:12]}...)")

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Magic + checksum header + pickled body."""
        body = pickle.dumps(
            (self.schema_version, self.kind, self.payload),
            protocol=_PICKLE_PROTOCOL)
        return _MAGIC + self.checksum.encode("ascii") + body

    @classmethod
    def from_bytes(cls, data: bytes) -> "SimCheckpoint":
        """Parse and verify a checkpoint blob."""
        if not data.startswith(_MAGIC):
            raise CheckpointError("not a checkpoint (bad magic)")
        header_end = len(_MAGIC) + 64  # sha256 hex digest
        if len(data) < header_end:
            raise ChecksumError("truncated checkpoint header")
        checksum = data[len(_MAGIC):header_end].decode("ascii", "replace")
        try:
            schema_version, kind, payload = pickle.loads(data[header_end:])
        except Exception as exc:
            raise ChecksumError(f"unreadable checkpoint body: {exc}") from exc
        ckpt = cls(kind=kind, payload=payload, schema_version=schema_version,
                   checksum=checksum)
        ckpt.verify()
        return ckpt

    # ------------------------------------------------------------------
    # Files
    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> Path:
        """Write atomically: temp file in the same dir, fsync, rename."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".ckpt.tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(self.to_bytes())
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        _fsync_dir(path.parent)
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SimCheckpoint":
        """Read and verify a checkpoint file."""
        with Path(path).open("rb") as fh:
            return cls.from_bytes(fh.read())

    @classmethod
    def try_load(cls, path: Union[str, Path]) -> Optional["SimCheckpoint"]:
        """Like :meth:`load`, but a missing/corrupt file is ``None``.

        A corrupt file is deleted so the slot is clean for the next
        write -- recompute-from-scratch is always safe; restoring bad
        state never is.
        """
        path = Path(path)
        try:
            return cls.load(path)
        except FileNotFoundError:
            return None
        except (CheckpointError, OSError):
            try:
                path.unlink()
            except OSError:
                pass
            return None


def _fsync_dir(directory: Path) -> None:
    """Flush a rename to disk (best-effort; not all OSes allow it)."""
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class Checkpointer:
    """Periodic checkpoint trigger + sink for a running harness.

    Parameters
    ----------
    path:
        Where checkpoints are written (atomically overwritten each
        time).  ``None`` keeps them only in :attr:`latest` (useful for
        tests and for the stall watchdog's flush-on-demand).
    every_steps:
        Save cadence in control steps; 0 disables the periodic trigger
        (budget exits and the watchdog can still force a save).
    sink:
        Optional extra callable invoked with every saved checkpoint.
    """

    def __init__(self, path: Union[str, Path, None] = None,
                 every_steps: int = 0,
                 sink: Optional[Callable[[SimCheckpoint], None]] = None) -> None:
        if every_steps < 0:
            raise ValueError("every_steps must be non-negative")
        self.path = Path(path) if path is not None else None
        self.every_steps = every_steps
        self.sink = sink
        #: The most recent checkpoint handed to :meth:`save`.
        self.latest: Optional[SimCheckpoint] = None
        #: Checkpoints saved so far.
        self.saves = 0

    def due(self, step_index: int) -> bool:
        """Whether the periodic cadence calls for a save now."""
        return (self.every_steps > 0 and step_index > 0
                and step_index % self.every_steps == 0)

    def save(self, checkpoint: SimCheckpoint) -> None:
        """Record (and, when configured, persist) a checkpoint."""
        # Registry-only instrumentation: this can run off the main
        # thread, and the tracer's span stack is main-thread-only.
        ob = obs.session()
        started = time.monotonic() if ob is not None else 0.0
        self.latest = checkpoint
        self.saves += 1
        if self.path is not None:
            checkpoint.save(self.path)
        if self.sink is not None:
            self.sink(checkpoint)
        if ob is not None:
            reg = ob.registry
            reg.counter("durability.checkpoint_saves").inc()
            reg.histogram("durability.checkpoint_save_s").observe(
                time.monotonic() - started)
