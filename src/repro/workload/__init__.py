"""Workload substrate: generators, toggling, traces."""

from .base import Segment, SegmentStream, Workload
from .generators import (
    EtaStaticWorkload,
    GeekbenchWorkload,
    IdleWorkload,
    PCMarkWorkload,
    SkewedBurstWorkload,
    VideoWorkload,
)
from .onoff import ScreenToggleWorkload
from .traces import Trace, record_trace

__all__ = [
    "Segment",
    "SegmentStream",
    "Workload",
    "EtaStaticWorkload",
    "GeekbenchWorkload",
    "IdleWorkload",
    "PCMarkWorkload",
    "SkewedBurstWorkload",
    "VideoWorkload",
    "ScreenToggleWorkload",
    "Trace",
    "record_trace",
]
