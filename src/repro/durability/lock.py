"""Advisory file locking for multi-runner shared directories.

Two :class:`~repro.sim.sweep.ScenarioRunner` processes pointed at the
same cache directory each write entries atomically (temp + rename),
but without a lock their *sequences* of filesystem operations can
interleave — and any future read-modify-write on shared metadata
would race outright.  :class:`FileLock` wraps ``fcntl.flock`` on an
adjacent lock file: cheap, advisory (cooperating writers only), and
automatically released by the kernel if the holder dies, so a crashed
runner can never wedge the cache.

On platforms without ``fcntl`` the lock degrades to a warned no-op —
single-writer atomic-rename semantics, exactly the pre-lock contract.
"""

from __future__ import annotations

import os
import threading
import warnings
from pathlib import Path
from typing import Optional, Union

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

__all__ = ["FileLock"]

_WARNED = False


class FileLock:
    """An exclusive advisory lock on a path.

    Re-entrant per thread and safe to share between threads: a
    per-instance :class:`threading.RLock` is held from :meth:`acquire`
    to the matching final :meth:`release`, so a second thread blocks
    instead of entering, and only the owning thread can drop the
    ``flock`` or close its descriptor.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._guard = threading.RLock()
        self._owner: Optional[int] = None
        self._fd: Optional[int] = None
        self._depth = 0

    def acquire(self) -> None:
        """Block until the lock is held by the calling thread."""
        self._guard.acquire()
        if self._depth > 0:
            self._depth += 1
            return
        try:
            self._fd = self._lock_file()
        except BaseException:
            self._guard.release()
            raise
        self._owner = threading.get_ident()
        self._depth = 1

    def _lock_file(self) -> Optional[int]:
        """``flock`` the lock file; returns its descriptor."""
        if fcntl is None:  # pragma: no cover - non-POSIX
            global _WARNED
            if not _WARNED:
                _WARNED = True
                warnings.warn(
                    "fcntl is unavailable; cache writes fall back to "
                    "unlocked atomic renames (single-writer semantics)",
                    RuntimeWarning, stacklevel=4)
            return None
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(str(self.path), os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
        except BaseException:
            os.close(fd)
            raise
        return fd

    def release(self) -> None:
        """Drop one level of the calling thread's hold (no-op if it
        holds none; the kernel drops the lock anyway if the process
        dies)."""
        if self._depth == 0 or self._owner != threading.get_ident():
            return
        self._depth -= 1
        try:
            if self._depth == 0:
                fd, self._fd, self._owner = self._fd, None, None
                if fd is not None:
                    try:
                        fcntl.flock(fd, fcntl.LOCK_UN)  # type: ignore[union-attr]
                    finally:
                        os.close(fd)
        finally:
            self._guard.release()

    @property
    def held(self) -> bool:
        """Whether this instance currently holds the lock."""
        return self._depth > 0

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()
