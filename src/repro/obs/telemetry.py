"""RunTelemetry: the machine-readable observability blob of one run.

A :class:`RunTelemetry` freezes a scope's registry contents (plain
dicts, JSON-ready) plus the span aggregates of the same window.  It is
what a discharge cycle attaches to its
:class:`~repro.sim.discharge.DischargeResult`, what a journal replays
with a resumed cell's result, and what the sweep folds into one
sweep-level blob with :meth:`merge` -- the same associative,
commutative semantics as
:meth:`repro.obs.registry.MetricsRegistry.merge`.

Invisibility contract
---------------------
Telemetry rides *on* results but is not *of* them: the simulation's
outputs are byte-identical with observability on or off.  The
differential harness compares runs through :func:`invisible_view`,
which strips the two timing-only carriers (the telemetry blob and the
measured ``wall_time_s``, which the sweep engine already zeroes for
its own determinism comparisons) and leaves every simulated quantity
in place.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional

__all__ = ["RunTelemetry", "invisible_view"]


def _merge_histogram(a: Dict[str, Any], b: Dict[str, Any],
                     name: str) -> Dict[str, Any]:
    if list(a["boundaries"]) != list(b["boundaries"]):
        raise ValueError(
            f"telemetry histogram {name!r}: mismatched bucket layouts")
    return {
        "boundaries": list(a["boundaries"]),
        "counts": [x + y for x, y in zip(a["counts"], b["counts"])],
        "count": a["count"] + b["count"],
        "sum": a["sum"] + b["sum"],
    }


@dataclass
class RunTelemetry:
    """Registry + span aggregates of one observed window.

    ``kind``/``label`` identify the producing harness ("discharge",
    "daily", "sweep", "chaos") and the run within it; merged blobs
    keep the kind/label of the receiving side.
    """

    kind: str = ""
    label: str = ""
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    #: name -> {"boundaries": [...], "counts": [...], "count": n, "sum": s}
    histograms: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: relative span path -> {"count": n, "total_s": t, "max_s": m}
    spans: Dict[str, Dict[str, float]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def counter(self, name: str) -> float:
        """A counter's value, defaulting to 0."""
        return self.counters.get(name, 0.0)

    def merge(self, other: "RunTelemetry") -> "RunTelemetry":
        """A new blob folding ``other`` into this one.

        Counters add, gauges take the max, histograms add bucket-wise
        (identical layouts required), span aggregates add with max of
        max -- associative and commutative, so folding a sweep's cell
        blobs in any completion order yields the same aggregate.
        """
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0.0) + value
        gauges = dict(self.gauges)
        for name, value in other.gauges.items():
            if name not in gauges or value > gauges[name]:
                gauges[name] = value
        histograms = dict(self.histograms)
        for name, parts in other.histograms.items():
            if name in histograms:
                histograms[name] = _merge_histogram(histograms[name], parts,
                                                    name)
            else:
                histograms[name] = parts
        spans = {path: dict(agg) for path, agg in self.spans.items()}
        for path, agg in other.spans.items():
            mine = spans.get(path)
            if mine is None:
                spans[path] = dict(agg)
            else:
                mine["count"] += agg["count"]
                mine["total_s"] += agg["total_s"]
                if agg["max_s"] > mine["max_s"]:
                    mine["max_s"] = agg["max_s"]
        return RunTelemetry(kind=self.kind, label=self.label,
                            counters=counters, gauges=gauges,
                            histograms=histograms, spans=spans)

    @classmethod
    def merged(cls, blobs: Iterable[Optional["RunTelemetry"]],
               kind: str = "", label: str = "") -> "RunTelemetry":
        """Fold an iterable of blobs (``None`` entries skipped)."""
        out = cls(kind=kind, label=label)
        for blob in blobs:
            if blob is not None:
                out = out.merge(blob)
        out.kind, out.label = kind, label
        return out

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict view (JSONL exporter wire format)."""
        return {
            "kind": self.kind,
            "label": self.label,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {k: dict(v) for k, v in self.histograms.items()},
            "spans": {k: dict(v) for k, v in self.spans.items()},
        }


def invisible_view(result: Any) -> Any:
    """A deep copy of a run result with the timing-only carriers zeroed.

    Strips ``telemetry`` (set to ``None``) and ``wall_time_s`` (set to
    0.0, matching what the sweep engine's result channel already does)
    wherever present, recursing into a
    :class:`~repro.sim.daily.MultiDayResult`'s day cycles implicitly
    (day records carry no telemetry).  Everything else -- traces,
    metrics, events, counts -- is preserved bit-for-bit, so
    ``pickle.dumps(invisible_view(a)) == pickle.dumps(invisible_view(b))``
    is the differential harness's equality.
    """
    clone = pickle.loads(pickle.dumps(result, protocol=4))
    if hasattr(clone, "telemetry"):
        clone.telemetry = None
    if hasattr(clone, "wall_time_s"):
        clone.wall_time_s = 0.0
    return clone
