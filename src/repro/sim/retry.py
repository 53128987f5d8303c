"""Retry policies: exponential backoff with deterministic seeded jitter.

Every layer of the sweep engine that re-executes work — the local
executor retrying a cell whose worker died, the distributed
coordinator re-dispatching an expired lease, the networked cache
client probing a partitioned server — shares one policy object.
This module also hosts the :class:`CircuitBreaker` those same layers
use to stop *issuing* doomed remote calls while a peer is down.  A
:class:`RetryPolicy` answers two questions:

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
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

__all__ = ["RetryPolicy", "DEFAULT_RETRY",
           "CircuitBreaker", "BreakerStats"]


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


@dataclass
class BreakerStats:
    """Lifetime counters of one :class:`CircuitBreaker`."""

    #: Closed -> open transitions (consecutive-failure threshold hit).
    trips: int = 0
    #: Open -> half-open transitions (one probe let through).
    probes: int = 0
    #: Calls refused while the circuit was open / a probe in flight.
    short_circuits: int = 0
    #: Half-open -> closed transitions (a probe succeeded).
    closes: int = 0


class CircuitBreaker:
    """A consecutive-failure circuit breaker with half-open probes.

    The classic three-state machine, sized for remote calls whose
    failure mode is "the peer is down, every call burns a timeout":

    * **closed** — calls flow; ``failure_threshold`` *consecutive*
      failures trip the circuit (any success resets the streak);
    * **open** — :meth:`allow` refuses instantly (no connection
      attempt, no timeout) until ``reset_timeout_s`` has elapsed;
    * **half-open** — exactly one probe call is let through; its
      success closes the circuit, its failure re-opens it for another
      full ``reset_timeout_s``.  Concurrent callers during the probe
      are refused, so a recovering peer sees one connection, not a
      thundering herd.

    Thread-safe; all transitions happen under one lock.  ``clock`` is
    injectable for deterministic tests.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, failure_threshold: int = 1,
                 reset_timeout_s: float = 0.5,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if reset_timeout_s < 0:
            raise ValueError("reset_timeout_s must be non-negative")
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self.stats = BreakerStats()
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at = 0.0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._state == self.CLOSED

    def allow(self) -> bool:
        """Whether a call may be issued right now.

        In the open state, returns True exactly once per
        ``reset_timeout_s`` window — the half-open probe — and refuses
        everything else without touching the network.
        """
        with self._lock:
            if self._state == self.CLOSED:
                return True
            if (self._state == self.OPEN
                    and self._clock() - self._opened_at
                    >= self.reset_timeout_s):
                self._state = self.HALF_OPEN
                self.stats.probes += 1
                return True
            # Open inside the window, or a half-open probe is already
            # in flight: refuse without burning a timeout.
            self.stats.short_circuits += 1
            return False

    def record_success(self) -> None:
        """A call succeeded: close the circuit, reset the streak."""
        with self._lock:
            if self._state != self.CLOSED:
                self.stats.closes += 1
            self._state = self.CLOSED
            self._failures = 0

    def record_failure(self) -> None:
        """A call failed: extend the streak, maybe trip the circuit."""
        with self._lock:
            self._failures += 1
            if self._state == self.HALF_OPEN:
                # The probe failed: back to a full open window.
                self._state = self.OPEN
                self._opened_at = self._clock()
                return
            if (self._state == self.CLOSED
                    and self._failures >= self.failure_threshold):
                self._state = self.OPEN
                self._opened_at = self._clock()
                self.stats.trips += 1
