"""Hierarchical tracer: nested spans with monotonic-clock timings.

The span hierarchy mirrors the run structure::

    sweep -> cell -> discharge -> similarity.solve / scheduler.* / ...
                 \\-> daily -> day -> discharge -> ...

Every span is timed with :func:`time.monotonic` (bound at import so a
test monkeypatching ``time.time`` -- or a host whose wall clock steps
backwards, NTP-style -- cannot produce negative durations).  Finished
spans are appended to a bounded in-process list and handed to the
session's exporter; when the cap is hit further spans are *counted but
dropped* so a pathological run cannot exhaust memory through its own
observability.

Per-control-step events are deliberately **not** spans: at ~10^5 steps
per simulated day one object per step would dominate the enabled-mode
cost.  The step loop records into a fixed-bucket histogram instead
(``sim.step_wall_s``); spans mark the coarse phases around it.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Span", "SpanMark", "Tracer"]

#: Monotonic clock, bound once: immune to wall-clock steps and to
#: monkeypatching of ``time.time``.
_monotonic = time.monotonic


class Span:
    """One finished span: name, ancestry path, timing, attributes."""

    __slots__ = ("name", "path", "attrs", "start_s", "duration_s")

    def __init__(self, name: str, path: Tuple[str, ...],
                 attrs: Tuple[Tuple[str, object], ...],
                 start_s: float, duration_s: float) -> None:
        self.name = name
        #: Full name chain from the tracer root, ``self.name`` last.
        self.path = path
        self.attrs = attrs
        #: Monotonic-clock start (meaningful only relative to other
        #: spans of the same process).
        self.start_s = start_s
        self.duration_s = duration_s

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "path": "/".join(self.path),
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Span({'/'.join(self.path)!r}, "
                f"duration_s={self.duration_s:.6f})")


class _OpenSpan:
    """A span in flight; ``finish()`` stamps it and files it."""

    __slots__ = ("_tracer", "name", "_path", "_attrs", "_start", "_done")

    def __init__(self, tracer: "Tracer", name: str,
                 path: Tuple[str, ...],
                 attrs: Tuple[Tuple[str, object], ...]) -> None:
        self._tracer = tracer
        self.name = name
        self._path = path
        self._attrs = attrs
        self._start = _monotonic()
        self._done = False

    def annotate(self, **attrs: object) -> None:
        """Attach attributes discovered mid-span."""
        self._attrs = self._attrs + tuple(attrs.items())

    def finish(self) -> Optional[Span]:
        """Close the span (idempotent); returns the finished record."""
        if self._done:
            return None
        self._done = True
        span = Span(self.name, self._path, self._attrs, self._start,
                    _monotonic() - self._start)
        self._tracer._finish(self, span)
        return span

    # Context-manager sugar: ``with tracer.span("phase"):``
    def __enter__(self) -> "_OpenSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        self.finish()


#: Opaque marker for :meth:`Tracer.mark` / :meth:`Tracer.window`:
#: (finished-span index, stack depth) at mark time.
SpanMark = Tuple[int, int]


class Tracer:
    """Span stack + bounded finished-span store.

    Single-threaded by design (the simulator's control loops are);
    background threads such as the stall watchdog must not trace.
    """

    def __init__(self, max_spans: int = 50_000,
                 on_finish: Optional[Callable[[Span], None]] = None) -> None:
        if max_spans < 1:
            raise ValueError("max_spans must be positive")
        self.max_spans = max_spans
        #: Exporter hook, called with every finished span.
        self.on_finish = on_finish
        self._stack: List[_OpenSpan] = []
        self._finished: List[Span] = []
        #: Spans discarded after the cap was reached.
        self.dropped = 0

    # ------------------------------------------------------------------
    def start(self, name: str, **attrs: object) -> _OpenSpan:
        """Open a child span of whatever is currently on the stack."""
        parent = self._stack[-1]._path if self._stack else ()
        span = _OpenSpan(self, name, parent + (name,), tuple(attrs.items()))
        self._stack.append(span)
        return span

    def span(self, name: str, **attrs: object) -> _OpenSpan:
        """Like :meth:`start`, reads naturally in a ``with`` block."""
        return self.start(name, **attrs)

    def _finish(self, open_span: _OpenSpan, span: Span) -> None:
        # Unwind to (and including) the finishing span; out-of-order
        # finishes close the abandoned children implicitly.
        while self._stack:
            popped = self._stack.pop()
            if popped is open_span:
                break
        if len(self._finished) < self.max_spans:
            self._finished.append(span)
        else:
            self.dropped += 1
        if self.on_finish is not None:
            self.on_finish(span)

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Open spans on the stack."""
        return len(self._stack)

    @property
    def finished(self) -> List[Span]:
        """Finished spans retained under the cap, oldest first."""
        return self._finished

    # ------------------------------------------------------------------
    # Windows (per-cycle / per-sweep telemetry extraction)
    # ------------------------------------------------------------------
    def mark(self) -> SpanMark:
        """A position marker for a later :meth:`window` call."""
        return (len(self._finished), len(self._stack))

    def window(self, mark: SpanMark) -> Dict[str, Dict[str, float]]:
        """Aggregate spans finished since ``mark``, by relative path.

        Paths are reported relative to the stack depth at mark time, so
        a cycle's telemetry reads ``discharge/similarity.solve``
        whether the cycle ran under a sweep/cell span or as a root.
        """
        index, depth = mark
        out: Dict[str, Dict[str, float]] = {}
        for span in self._finished[index:]:
            rel = "/".join(span.path[depth:]) or span.name
            agg = out.get(rel)
            if agg is None:
                out[rel] = {"count": 1, "total_s": span.duration_s,
                            "max_s": span.duration_s}
            else:
                agg["count"] += 1
                agg["total_s"] += span.duration_s
                if span.duration_s > agg["max_s"]:
                    agg["max_s"] = span.duration_s
        return out
