"""Process-local metrics registry: counters, gauges, histograms.

One registry is *the* place a run counts things.  Three instrument
kinds cover the stack's needs:

* :class:`Counter` -- monotonically non-decreasing totals (steps run,
  cache hits, mode transitions, seconds spent in a phase);
* :class:`Gauge`   -- last-written values (service time of the cycle
  that just finished, observed peak temperature);
* :class:`Histogram` -- fixed-bucket-layout distributions (per-step
  wall time, decision latency, checkpoint fsync latency).

Merge semantics (cross-run aggregation)
---------------------------------------
Each scope populates a private registry, frozen into a
:class:`~repro.obs.telemetry.RunTelemetry`; a sweep folds the blobs of
the cells it resumed from a journal into its own with :meth:`merge`.
The merge is **associative and commutative** so the fold order cannot
change the aggregate:

* counters add,
* gauges take the maximum (a cross-run gauge aggregate is its
  high-water mark),
* histograms add bucket-wise -- which requires *identical bucket
  layouts*, the reason layouts are fixed at first use and conflicting
  re-declarations raise.

(The counter/histogram additions are exact for integer-valued
amounts; float amounts are associative up to IEEE rounding.)

Nothing in this module reads any clock; time measurement lives in
:mod:`repro.obs.tracer` and in the instrumented call sites, which all
use monotonic clocks.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "LATENCY_BUCKETS_S",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Default latency layout: log-spaced from 1 us to 100 s.  Covers the
#: paper's decision-latency range (Figure 16: us..ms) as well as the
#: slowest phases we time (background solves, checkpoint fsyncs).
LATENCY_BUCKETS_S: Tuple[float, ...] = (
    1e-6, 3.16e-6, 1e-5, 3.16e-5, 1e-4, 3.16e-4,
    1e-3, 3.16e-3, 1e-2, 3.16e-2, 1e-1, 3.16e-1,
    1.0, 3.16, 10.0, 31.6, 100.0,
)


class Counter:
    """A monotonically non-decreasing total."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative: counters only grow)."""
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (inc({amount!r}))")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A last-written value (merge takes the maximum)."""

    __slots__ = ("name", "_value", "_set")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._set = False

    def set(self, value: float) -> None:
        self._value = float(value)
        self._set = True

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """A fixed-bucket-layout distribution.

    ``boundaries`` are the strictly increasing upper bounds of the
    first ``len(boundaries)`` buckets; one overflow bucket catches
    everything above the last boundary.  A value ``v`` lands in the
    first bucket whose boundary satisfies ``v <= boundary``.

    Invariants (pinned by the property tests):

    * ``sum(bucket_counts) == count`` always;
    * ``observe`` adds exactly one count, to exactly the bucket whose
      range contains the value.
    """

    __slots__ = ("name", "boundaries", "_counts", "_sum")

    def __init__(self, name: str,
                 boundaries: Sequence[float] = LATENCY_BUCKETS_S) -> None:
        bounds = tuple(float(b) for b in boundaries)
        if not bounds:
            raise ValueError("histogram needs at least one boundary")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("histogram boundaries must strictly increase")
        self.name = name
        self.boundaries = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0

    def observe(self, value: float) -> None:
        """Record one sample."""
        # bisect_left: a value equal to a boundary belongs to that
        # boundary's bucket (v <= bound); above the last boundary the
        # index is len(boundaries) == the overflow slot.
        self._counts[bisect_left(self.boundaries, value)] += 1
        self._sum += value

    @property
    def count(self) -> int:
        return sum(self._counts)

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def bucket_counts(self) -> Tuple[int, ...]:
        """Per-bucket counts; the last entry is the overflow bucket."""
        return tuple(self._counts)

    @property
    def mean(self) -> float:
        n = self.count
        return self._sum / n if n else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (upper bound of the
        bucket holding the ``q``-th sample; the overflow bucket reports
        the last finite boundary)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must lie in [0, 1]")
        n = self.count
        if n == 0:
            return 0.0
        rank = q * n
        seen = 0
        for i, c in enumerate(self._counts):
            seen += c
            if seen >= rank and c:
                return self.boundaries[min(i, len(self.boundaries) - 1)]
        return self.boundaries[-1]

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly view (the telemetry wire format)."""
        return {
            "boundaries": list(self.boundaries),
            "counts": list(self._counts),
            "count": self.count,
            "sum": self._sum,
        }

    def _merge_parts(self, counts: Sequence[int], total: float) -> None:
        if len(counts) != len(self._counts):
            raise ValueError(
                f"histogram {self.name!r}: cannot merge a "
                f"{len(counts)}-bucket layout into {len(self._counts)} buckets")
        for i, c in enumerate(counts):
            self._counts[i] += c
        self._sum += total


class MetricsRegistry:
    """Named counters, gauges and histograms, created on first use.

    Instruments are interned by name: ``registry.counter("sim.steps")``
    always returns the same object, so hot loops can hoist the bound
    ``inc``/``observe`` method once and pay a plain call per event.
    """

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str,
                  boundaries: Sequence[float] = LATENCY_BUCKETS_S) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, boundaries)
        elif tuple(float(b) for b in boundaries) != h.boundaries:
            raise ValueError(
                f"histogram {name!r} already exists with a different "
                f"bucket layout")
        return h

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def counter_values(self) -> Dict[str, float]:
        return {name: c.value for name, c in self._counters.items()}

    def gauge_values(self) -> Dict[str, float]:
        return {name: g.value for name, g in self._gauges.items() if g._set}

    def histogram_dicts(self) -> Dict[str, Dict[str, object]]:
        return {name: h.as_dict() for name, h in self._histograms.items()}

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    # ------------------------------------------------------------------
    # Merge (cross-run / scope-exit aggregation)
    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry (see module docstring)."""
        self.merge_parts(other.counter_values(), other.gauge_values(),
                         other.histogram_dicts())

    def merge_parts(
        self,
        counters: Mapping[str, float],
        gauges: Mapping[str, float],
        histograms: Mapping[str, Mapping[str, object]],
    ) -> None:
        """Fold plain-dict instrument values (the telemetry wire form)."""
        for name, value in counters.items():
            self.counter(name).inc(value)
        for name, value in gauges.items():
            g = self.gauge(name)
            if not g._set or value > g.value:
                g.set(value)
        for name, parts in histograms.items():
            h = self.histogram(name, parts["boundaries"])  # type: ignore[arg-type]
            h._merge_parts(parts["counts"], parts["sum"])  # type: ignore[arg-type]

    @classmethod
    def merged(cls, registries: Iterable["MetricsRegistry"]) -> "MetricsRegistry":
        """A fresh registry holding the fold of ``registries``."""
        out = cls()
        for reg in registries:
            out.merge(reg)
        return out
