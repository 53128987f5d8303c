"""Tests for metrics recording."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.metrics import MetricsRecorder, TimeSeries


class TestTimeSeries:
    def test_append_and_last(self):
        ts = TimeSeries()
        ts.append(1.0, 10.0)
        ts.append(2.0, 20.0)
        assert ts.last == (2.0, 20.0)
        assert len(ts) == 2

    def test_decimation_caps_memory(self):
        ts = TimeSeries(max_points=100)
        for i in range(1000):
            ts.append(float(i), float(i))
        assert len(ts) <= 100

    def test_decimation_preserves_span(self):
        ts = TimeSeries(max_points=64)
        for i in range(500):
            ts.append(float(i), float(i))
        assert ts.times[0] == 0.0
        assert ts.times[-1] >= 490.0

    def test_mean_and_max(self):
        ts = TimeSeries()
        for v in (1.0, 2.0, 3.0):
            ts.append(v, v)
        assert ts.mean() == pytest.approx(2.0)
        assert ts.maximum() == 3.0

    def test_time_weighted_mean(self):
        ts = TimeSeries()
        ts.append(0.0, 0.0)
        ts.append(1.0, 10.0)   # 10 over 1s
        ts.append(11.0, 0.0)   # 0 over 10s
        assert ts.time_weighted_mean() == pytest.approx(10.0 / 11.0)

    def test_empty_series_behaviour(self):
        ts = TimeSeries()
        assert ts.mean() == 0.0
        with pytest.raises(IndexError):
            _ = ts.last
        with pytest.raises(ValueError):
            ts.maximum()

    def test_statistics_pinned_across_decimation_boundary(self):
        """Pin mean/max/time-weighted-mean across a decimation.

        Contract (module docstring): exceeding ``max_points`` keeps
        every other sample (indices 0, 2, 4, ...), so statistics are
        computed over exactly that retained subset -- reproduced here
        with a plain list oracle.
        """
        ts = TimeSeries(max_points=8)
        samples = [(float(i), float(i * i)) for i in range(11)]
        for (t, v) in samples:
            ts.append(t, v)
        # Oracle: replay the historical list implementation.
        kept_t, kept_v = [], []
        for t, v in samples:
            kept_t.append(t)
            kept_v.append(v)
            if len(kept_t) > 8:
                kept_t = kept_t[::2]
                kept_v = kept_v[::2]

        assert list(ts.times) == kept_t
        assert list(ts.values) == kept_v
        # One decimation at the 9th append: the retained prefix has
        # doubled spacing, the post-decimation tail keeps unit spacing.
        assert kept_t == [0.0, 2.0, 4.0, 6.0, 8.0, 9.0, 10.0]

        assert ts.mean() == pytest.approx(sum(kept_v) / len(kept_v))
        assert ts.maximum() == max(kept_v)
        expected_twm = sum(
            kept_v[i] * (kept_t[i] - kept_t[i - 1])
            for i in range(1, len(kept_t))
        ) / (kept_t[-1] - kept_t[0])
        assert ts.time_weighted_mean() == pytest.approx(expected_twm)

    def test_uniform_signal_immune_to_decimation(self):
        """A constant signal keeps its statistics through decimations."""
        ts = TimeSeries(max_points=16)
        for i in range(100):
            ts.append(float(i), 7.5)
        assert ts.mean() == pytest.approx(7.5)
        assert ts.maximum() == 7.5
        assert ts.time_weighted_mean() == pytest.approx(7.5)

    def test_pickle_roundtrip(self):
        import pickle

        ts = TimeSeries(max_points=8)
        for i in range(12):
            ts.append(float(i), float(i) * 2.0)
        clone = pickle.loads(pickle.dumps(ts))
        assert list(clone.times) == list(ts.times)
        assert list(clone.values) == list(ts.values)
        clone.append(99.0, 1.0)  # buffer still usable after restore
        assert clone.last == (99.0, 1.0)


class TestMetricsRecorder:
    def test_record_and_fetch(self):
        m = MetricsRecorder()
        m.record("soc", 1.0, 0.9)
        assert m.series("soc").last == (1.0, 0.9)
        assert m.has_series("soc")
        assert not m.has_series("nope")

    def test_counters(self):
        m = MetricsRecorder()
        m.bump("switches")
        m.bump("switches", 2.0)
        assert m.counter("switches") == 3.0
        assert m.counter("missing") == 0.0

    def test_series_names(self):
        m = MetricsRecorder()
        m.record("a", 0.0, 1.0)
        m.record("b", 0.0, 1.0)
        assert set(m.series_names) == {"a", "b"}

    def test_unknown_series_raises(self):
        with pytest.raises(KeyError):
            MetricsRecorder().series("none")


# ----------------------------------------------------------------------
# Bulk loading: extend / record_many == repeated append / record
# ----------------------------------------------------------------------
_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
#: Batches of (t, v) samples; empty batches included.  With a cap of
#: 1-8 points, a batch of up to 40 samples crosses the cap mid-call,
#: often more than once.
_batches = st.lists(st.lists(st.tuples(_finite, _finite), max_size=40),
                    min_size=1, max_size=6)


def _columns(batch):
    return [t for t, _ in batch], [v for _, v in batch]


class TestBulkLoad:
    @settings(max_examples=200, deadline=None)
    @given(max_points=st.integers(1, 8), batches=_batches)
    def test_extend_equals_repeated_append(self, max_points, batches):
        bulk, one = TimeSeries(max_points), TimeSeries(max_points)
        for batch in batches:
            bulk.extend(*_columns(batch))
            for t, v in batch:
                one.append(t, v)
            assert pickle.dumps(bulk) == pickle.dumps(one)
            assert len(bulk) <= max_points

    @settings(max_examples=200, deadline=None)
    @given(max_points=st.integers(1, 8),
           batches=st.lists(st.tuples(st.sampled_from(["a", "b"]),
                                      st.lists(st.tuples(_finite, _finite),
                                               max_size=40)),
                            min_size=1, max_size=6))
    def test_record_many_equals_repeated_record(self, max_points, batches):
        bulk, one = MetricsRecorder(max_points), MetricsRecorder(max_points)
        for name, batch in batches:
            bulk.record_many(name, *_columns(batch))
            for t, v in batch:
                one.record(name, t, v)
            assert pickle.dumps(bulk) == pickle.dumps(one)

    def test_extend_crossing_cap_twice_in_one_call(self):
        bulk, one = TimeSeries(max_points=3), TimeSeries(max_points=3)
        samples = [(float(i), float(-i)) for i in range(10)]
        bulk.append(*samples[0])
        one.append(*samples[0])
        bulk.extend(*_columns(samples[1:]))
        for t, v in samples[1:]:
            one.append(t, v)
        # Four decimations inside the one extend call.
        assert list(bulk.times) == list(one.times) == [0.0, 8.0]
        assert pickle.dumps(bulk) == pickle.dumps(one)

    def test_empty_record_many_creates_no_series(self):
        m = MetricsRecorder()
        m.record_many("soc", [], [])
        assert not m.has_series("soc")
        assert pickle.dumps(m) == pickle.dumps(MetricsRecorder())

    def test_extend_rejects_mismatched_columns(self):
        with pytest.raises(ValueError):
            TimeSeries().extend([0.0, 1.0], [0.0])
        m = MetricsRecorder()
        with pytest.raises(ValueError):
            m.record_many("soc", [0.0], [])
        assert not m.has_series("soc")
