"""Crash durability: checkpoint/restore, run journal, budgets, locks.

Long-horizon runs -- multi-hour discharge cycles, daily-wear lifetime
projections, chaos grids -- must survive a SIGKILL, a power loss or a
scheduler preemption without discarding hours of compute.  This
package supplies the building blocks:

* :mod:`~repro.durability.state` -- the versioned
  ``state_dict()`` / ``load_state_dict()`` discipline every stateful
  component follows;
* :mod:`~repro.durability.snapshot` -- :class:`SimCheckpoint`, a
  checksummed, schema-versioned container of component state dicts
  with atomic fsync'd save/load, plus the periodic
  :class:`Checkpointer`;
* :mod:`~repro.durability.journal` -- the fsync'd write-ahead JSONL
  :class:`RunJournal` the sweep engine commits cells to, with
  torn-tail detection and truncation recovery, and the
  exactly-once audit :func:`journal_commit_counts`;
* :mod:`~repro.durability.budget` -- wall-clock/step
  :class:`RunBudget` enforcement (checkpoint-then-exit instead of a
  kill), the one bound code applies to a run while it runs;
* :mod:`~repro.durability.lock` -- the advisory :class:`FileLock`
  serialising multi-runner cache writes.

Nothing in here imports the simulator: the dependency points from
``repro.sim`` (and the component layers) into ``repro.durability``,
never back.
"""

from .budget import BudgetExceededError, RunBudget
from .journal import JournalError, RunJournal, journal_commit_counts
from .lock import FileLock
from .snapshot import (
    CheckpointError,
    Checkpointer,
    ChecksumError,
    SCHEMA_VERSION,
    SimCheckpoint,
)
from .state import (
    StateError,
    StateMismatchError,
    StateVersionError,
    pack_state,
    unpack_state,
)

__all__ = [
    "BudgetExceededError",
    "RunBudget",
    "JournalError",
    "RunJournal",
    "journal_commit_counts",
    "FileLock",
    "CheckpointError",
    "Checkpointer",
    "ChecksumError",
    "SCHEMA_VERSION",
    "SimCheckpoint",
    "StateError",
    "StateMismatchError",
    "StateVersionError",
    "pack_state",
    "unpack_state",
]
