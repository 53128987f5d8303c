"""Retry policies: exponential backoff with deterministic seeded jitter.

The sweep engine re-executes work in one place: the local executor
retries a cell whose pool worker died (``BrokenProcessPool``) in a
fresh single-cell pool.  A :class:`RetryPolicy` answers two questions
for it:

* *may this unit try again?* — ``allows(attempt)`` caps total
  attempts;
* *how long until the next try?* — ``wait_s(attempt, token)`` grows
  exponentially and is de-synchronised by jitter.

The jitter is **deterministic**: it is derived by hashing
``(seed, token, attempt)``, not by sampling a global RNG.  Two runs of
the same sweep produce the same waits (reproducible schedules, stable
tests), while different cells (different ``token``\\ s) still spread
their retries out in time instead of thundering in lockstep.

The default policy, :data:`DEFAULT_RETRY`, allows one immediate retry
with no waiting; a :class:`~repro.sim.sweep.ScenarioRunner` built
without arguments uses it.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = ["RetryPolicy", "DEFAULT_RETRY"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    Parameters
    ----------
    max_attempts:
        Total execution attempts allowed per unit (1 = never retry).
    backoff_base_s:
        Wait before the first retry; 0 retries immediately.
    backoff_factor:
        Multiplier applied per further retry.
    backoff_max_s:
        Ceiling on any single wait.
    jitter:
        Fraction of each wait randomised *downward* (full jitter over
        ``[1 - jitter, 1] x wait``).  0 disables jitter.
    seed:
        Folds into the jitter hash so distinct runs can be
        de-correlated on purpose while each stays reproducible.
    """

    max_attempts: int = 2
    backoff_base_s: float = 0.0
    backoff_factor: float = 2.0
    backoff_max_s: float = 30.0
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff waits must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must lie in [0, 1]")

    def allows(self, attempts_made: int) -> bool:
        """Whether a unit that has already run ``attempts_made`` times
        may run again."""
        return attempts_made < self.max_attempts

    def wait_s(self, attempts_made: int, token: str = "") -> float:
        """Seconds to wait before attempt ``attempts_made + 1``.

        ``attempts_made`` counts completed (failed) attempts, so the
        first retry passes 1.  ``token`` identifies the retried unit
        (e.g. a cell label) and decorrelates its jitter from every
        other unit's.
        """
        if attempts_made < 1 or self.backoff_base_s <= 0:
            return 0.0
        wait = self.backoff_base_s * (self.backoff_factor
                                      ** (attempts_made - 1))
        wait = min(wait, self.backoff_max_s)
        if self.jitter > 0.0:
            digest = hashlib.sha256(
                f"{self.seed}:{token}:{attempts_made}".encode()).digest()
            frac = int.from_bytes(digest[:8], "big") / float(2 ** 64)
            wait *= 1.0 - self.jitter * frac
        return wait

    def sleep(self, attempts_made: int, token: str = "",
              sleeper: Optional[Callable[[float], None]] = None) -> float:
        """Wait out the backoff for the next attempt; returns the wait.

        ``sleeper`` is injectable for tests (defaults to
        :func:`time.sleep`); a zero wait never calls it.
        """
        wait = self.wait_s(attempts_made, token)
        if wait > 0.0:
            (sleeper or time.sleep)(wait)
        return wait


#: The historic sweep-engine behaviour: one immediate retry.
DEFAULT_RETRY = RetryPolicy()
