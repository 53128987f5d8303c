"""Trace recording and replay.

Experiments materialise a workload into a :class:`Trace` once, then
replay the identical demand for every policy under comparison (and
hand the whole trace to the Oracle baseline, which is allowed to see
the future).  Traces serialise to JSON lines for reuse across runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Union

from ..device.phone import DemandSlice
from ..device.syscalls import Syscall, SyscallVocabulary, default_vocabulary
from .base import Segment, Workload

__all__ = ["Trace", "record_trace"]


@dataclass
class Trace:
    """A finite, materialised sequence of segments."""

    segments: List[Segment]
    name: str = "trace"

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("a trace needs at least one segment")

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self) -> Iterator[Segment]:
        return iter(self.segments)

    @property
    def duration_s(self) -> float:
        """Total wall-clock span of the trace (s)."""
        return sum(s.duration_s for s in self.segments)

    @property
    def mean_power_proxy(self) -> float:
        """Duration-weighted mean CPU utilisation (rough heaviness)."""
        total = self.duration_s
        return sum(s.demand.cpu_util * s.duration_s for s in self.segments) / total

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> None:
        """Write the trace as JSON lines."""
        path = Path(path)
        with path.open("w") as fh:
            fh.write(json.dumps({"name": self.name}) + "\n")
            for seg in self.segments:
                d = seg.demand
                fh.write(json.dumps({
                    "duration_s": seg.duration_s,
                    "syscall": seg.syscall.name if seg.syscall else None,
                    "cpu_util": d.cpu_util,
                    "freq_index": d.freq_index,
                    "screen_on": d.screen_on,
                    "brightness": d.brightness,
                    "wifi_kbps": d.wifi_kbps,
                }) + "\n")

    @classmethod
    def load(cls, path: Union[str, Path],
             vocabulary: Optional[SyscallVocabulary] = None) -> "Trace":
        """Read a trace written by :meth:`save`."""
        vocab = vocabulary or default_vocabulary()
        path = Path(path)
        segments: List[Segment] = []
        name = "trace"
        with path.open() as fh:
            header = json.loads(fh.readline())
            name = header.get("name", name)
            for line in fh:
                row = json.loads(line)
                call: Optional[Syscall] = None
                if row["syscall"] is not None:
                    call = vocab.lookup(row["syscall"])
                segments.append(Segment(
                    DemandSlice(
                        cpu_util=row["cpu_util"],
                        freq_index=row["freq_index"],
                        screen_on=row["screen_on"],
                        brightness=row["brightness"],
                        wifi_kbps=row["wifi_kbps"],
                    ),
                    row["duration_s"],
                    call,
                ))
        return cls(segments, name=name)


def record_trace(workload: Workload, duration_s: float) -> Trace:
    """Materialise ``workload`` until at least ``duration_s`` seconds.

    The final segment is truncated so the trace length is exact.
    """
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    segments: List[Segment] = []
    elapsed = 0.0
    for seg in workload.segments():
        remaining = duration_s - elapsed
        if seg.duration_s >= remaining:
            segments.append(Segment(seg.demand, remaining, seg.syscall))
            elapsed = duration_s
            break
        segments.append(seg)
        elapsed += seg.duration_s
    return Trace(segments, name=workload.name)
