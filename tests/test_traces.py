"""Tests for trace recording, serialisation and replay."""

import pytest

from repro.device.phone import DemandSlice
from repro.workload.base import Segment
from repro.workload.generators import VideoWorkload
from repro.workload.traces import Trace, record_trace


class TestRecordTrace:
    def test_exact_duration(self):
        trace = record_trace(VideoWorkload(seed=1), 100.0)
        assert trace.duration_s == pytest.approx(100.0)

    def test_name_from_workload(self):
        assert record_trace(VideoWorkload(seed=1), 50.0).name == "Video"

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            record_trace(VideoWorkload(), 0.0)

    def test_deterministic(self):
        a = record_trace(VideoWorkload(seed=9), 120.0)
        b = record_trace(VideoWorkload(seed=9), 120.0)
        assert [s.duration_s for s in a] == [s.duration_s for s in b]


class TestTrace:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Trace([])

    def test_mean_power_proxy(self):
        segs = [
            Segment(DemandSlice(cpu_util=100.0), 1.0),
            Segment(DemandSlice(cpu_util=0.0), 3.0),
        ]
        assert Trace(segs).mean_power_proxy == pytest.approx(25.0)

    def test_save_load_roundtrip(self, tmp_path):
        trace = record_trace(VideoWorkload(seed=2), 60.0)
        path = tmp_path / "trace.jsonl"
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.name == trace.name
        assert len(loaded) == len(trace)
        for a, b in zip(trace, loaded):
            assert a.duration_s == pytest.approx(b.duration_s)
            assert a.demand == b.demand
            assert (a.syscall is None) == (b.syscall is None)
            if a.syscall is not None:
                assert a.syscall.name == b.syscall.name
