"""Metrics collection for simulation runs.

A :class:`MetricsRecorder` accumulates time series with bounded memory
(uniform decimation once a cap is hit) plus scalar counters, so long
discharge cycles stay cheap to record.

The storage is a preallocated NumPy buffer per series rather than a
Python list: appends are O(1) array stores, decimation is a single
strided copy done in place, and the summary statistics (`mean`,
`maximum`, `time_weighted_mean`) reduce over contiguous arrays.  This
is the hot recording path of ``run_discharge_cycle`` -- a day-long
trace at 1 s control steps records four series per step.

Decimation contract
-------------------
A series holds at most ``max_points`` samples.  When an append would
exceed the cap, every other sample (indices 0, 2, 4, ...) is kept and
the rest are dropped, halving the series and *doubling the spacing* of
the retained prefix.  Repeated decimation therefore yields a series
whose sample spacing is uniform at ``2**d`` times the recording
interval (``d`` = number of decimations), except possibly at the very
tail appended since the last decimation.  Consequences:

* ``mean`` and ``maximum`` are computed over the *retained* samples.
  ``maximum`` may miss a narrow spike that fell on a dropped sample.
* ``time_weighted_mean`` weights each retained sample by the gap to
  its predecessor, so it stays a consistent estimator across
  decimation boundaries: uniformly spaced input keeps uniform weights
  (the spacing doubles for every sample alike), and the estimate
  converges to the true time average as long as the signal varies
  slowly relative to the post-decimation spacing.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..durability.state import pack_state, unpack_state

__all__ = ["TimeSeries", "MetricsRecorder"]


class TimeSeries:
    """A capped (time, value) series backed by preallocated arrays.

    ``times`` and ``values`` expose the recorded samples as NumPy array
    views (read-only in spirit; do not resize them).  See the module
    docstring for the decimation contract.
    """

    __slots__ = ("max_points", "_t", "_v", "_n")

    def __init__(self, max_points: int = 4000) -> None:
        if max_points < 1:
            raise ValueError("max_points must be positive")
        self.max_points = max_points
        # One slot of headroom: decimation triggers *after* the append
        # that exceeds the cap, exactly like the historical list
        # implementation (`append; if len > cap: keep [::2]`).
        self._t = np.empty(max_points + 1, dtype=np.float64)
        self._v = np.empty(max_points + 1, dtype=np.float64)
        self._n = 0

    # ------------------------------------------------------------------
    def append(self, t: float, v: float) -> None:
        """Add a sample; decimates by 2 when the cap is exceeded."""
        n = self._n
        self._t[n] = t
        self._v[n] = v
        n += 1
        if n > self.max_points:
            n = self._halve(n)
        self._n = n

    def extend(self, times, values) -> None:
        """Add samples in order; equal to ``append`` on each pair.

        Copies in chunks that fill the buffer up to its headroom slot,
        decimating after each full chunk exactly where the per-sample
        ``append`` would, so a call may cross the cap any number of
        times.
        """
        times = np.asarray(times, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if times.shape != values.shape or times.ndim != 1:
            raise ValueError("times and values must be equal-length 1-D")
        n, cap = self._n, self.max_points
        start, total = 0, len(times)
        while start < total:
            k = min(cap + 1 - n, total - start)
            self._t[n:n + k] = times[start:start + k]
            self._v[n:n + k] = values[start:start + k]
            n += k
            start += k
            if n > cap:
                n = self._halve(n)
        self._n = n

    def _halve(self, n: int) -> int:
        """Keep samples 0, 2, 4, ... of the first ``n``; return the count.

        An in-place strided copy, equal to ``list[::2]``.
        """
        m = (n + 1) // 2
        self._t[:m] = self._t[:n:2]
        self._v[:m] = self._v[:n:2]
        return m

    def __len__(self) -> int:
        return self._n

    @property
    def times(self) -> np.ndarray:
        """Recorded sample times as an array view."""
        return self._t[: self._n]

    @property
    def values(self) -> np.ndarray:
        """Recorded sample values as an array view."""
        return self._v[: self._n]

    @property
    def last(self) -> Tuple[float, float]:
        """Most recent (time, value) sample."""
        if self._n == 0:
            raise IndexError("empty series")
        return float(self._t[self._n - 1]), float(self._v[self._n - 1])

    # ------------------------------------------------------------------
    def mean(self) -> float:
        """Unweighted mean of the retained values."""
        if self._n == 0:
            return 0.0
        return float(self._v[: self._n].mean())

    def maximum(self) -> float:
        """Largest retained value."""
        if self._n == 0:
            raise ValueError("empty series")
        return float(self._v[: self._n].max())

    def time_weighted_mean(self) -> float:
        """Mean weighted by the gaps between retained samples.

        Each sample ``i >= 1`` is weighted by ``t[i] - t[i-1]``; the
        first sample carries no weight.  Under the decimation contract
        (module docstring) the gaps stay uniform for uniformly recorded
        input, so this estimator is consistent across decimation
        boundaries.
        """
        n = self._n
        if n < 2:
            return self.mean()
        dt = np.diff(self._t[:n])
        span = float(dt.sum())
        if span <= 0:
            return self.mean()
        return float(np.dot(self._v[1:n], dt) / span)

    # ------------------------------------------------------------------
    # Pickle support (__slots__ + NumPy buffers).
    # ------------------------------------------------------------------
    def __getstate__(self):
        return {
            "max_points": self.max_points,
            "times": self._t[: self._n].copy(),
            "values": self._v[: self._n].copy(),
        }

    def __setstate__(self, state) -> None:
        self.max_points = state["max_points"]
        self._t = np.empty(self.max_points + 1, dtype=np.float64)
        self._v = np.empty(self.max_points + 1, dtype=np.float64)
        n = len(state["times"])
        self._t[:n] = state["times"]
        self._v[:n] = state["values"]
        self._n = n


class MetricsRecorder:
    """Named time series plus counters."""

    def __init__(self, max_points: int = 4000) -> None:
        self._max_points = max_points
        self._series: Dict[str, TimeSeries] = {}
        self._counters: Dict[str, float] = {}

    def record(self, name: str, t: float, value: float) -> None:
        """Append a sample to a named series."""
        series = self._series.get(name)
        if series is None:
            series = TimeSeries(self._max_points)
            self._series[name] = series
        series.append(t, value)

    def record_many(self, name: str, times, values) -> None:
        """Append samples to a named series; equal to ``record`` on each.

        An empty batch creates no series, as zero ``record`` calls would.
        """
        series = self._series.get(name)
        if series is None:
            series = TimeSeries(self._max_points)
        series.extend(times, values)
        if len(series):
            self._series[name] = series

    def bump(self, name: str, amount: float = 1.0) -> None:
        """Increment a counter."""
        self._counters[name] = self._counters.get(name, 0.0) + amount

    def series(self, name: str) -> TimeSeries:
        """Fetch a series (raises KeyError if never recorded)."""
        return self._series[name]

    def has_series(self, name: str) -> bool:
        """Whether a series exists."""
        return name in self._series

    def counter(self, name: str) -> float:
        """Fetch a counter, defaulting to 0."""
        return self._counters.get(name, 0.0)

    @property
    def series_names(self) -> List[str]:
        """Names of all recorded series."""
        return list(self._series)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    _STATE_VERSION = 1

    def state_dict(self) -> dict:
        """All series buffers (via their pickle form) and counters."""
        return pack_state(self, self._STATE_VERSION, {
            "max_points": self._max_points,
            "series": {name: ts.__getstate__()
                       for name, ts in self._series.items()},
            "counters": dict(self._counters),
        })

    def load_state_dict(self, state: dict) -> None:
        """Restore series and counters in place."""
        payload = unpack_state(self, state, self._STATE_VERSION)
        self._max_points = payload["max_points"]
        self._series = {}
        for name, ts_state in payload["series"].items():
            ts = TimeSeries.__new__(TimeSeries)
            ts.__setstate__(ts_state)
            self._series[name] = ts
        self._counters = dict(payload["counters"])
