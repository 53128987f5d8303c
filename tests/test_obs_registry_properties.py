"""Property tests for the metrics registry's algebra.

The sweep runner folds telemetry blobs (the sweep's own and those of
cells resumed from a journal) in whatever order they arrive.  The
aggregate is only deterministic because the merge is associative and
commutative -- pinned here over integer-valued amounts (where float
addition is exact), alongside the histogram bucketing invariants and
counter monotonicity the registry documents.
"""

from __future__ import annotations

from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs

# Integer amounts keep the additive merges exact (float addition over
# integers below 2**53 is associative), so equality can be strict.
amounts = st.integers(min_value=0, max_value=10**6)
values = st.floats(min_value=-1e3, max_value=1e6,
                   allow_nan=False, allow_infinity=False)
names = st.sampled_from(["sim.steps", "sim.brownouts", "scheduler.hits"])

boundaries = st.lists(
    st.integers(min_value=1, max_value=1000), min_size=1, max_size=6,
    unique=True).map(lambda bs: tuple(float(b) for b in sorted(bs)))


# ----------------------------------------------------------------------
# Histogram invariants
# ----------------------------------------------------------------------
@given(bounds=boundaries, samples=st.lists(values, max_size=50))
def test_histogram_total_count_equals_bucket_sum(bounds, samples):
    h = obs.Histogram("h", boundaries=bounds)
    for v in samples:
        h.observe(v)
    assert sum(h.bucket_counts) == h.count == len(samples)
    assert len(h.bucket_counts) == len(bounds) + 1


@given(bounds=boundaries, value=values)
def test_histogram_sample_lands_in_its_bucket(bounds, value):
    h = obs.Histogram("h", boundaries=bounds)
    h.observe(value)
    index = next(i for i, c in enumerate(h.bucket_counts) if c)
    assert index == bisect_left(bounds, value)
    if index < len(bounds):
        assert value <= bounds[index]           # within this bucket...
        if index > 0:
            assert value > bounds[index - 1]    # ...and above the previous
    else:
        assert value > bounds[-1]               # overflow bucket


@given(bounds=boundaries,
       a=st.lists(values, max_size=30), b=st.lists(values, max_size=30))
def test_histogram_merge_equals_combined_observation(bounds, a, b):
    separate = obs.Histogram("h", boundaries=bounds)
    combined = obs.Histogram("h", boundaries=bounds)
    other = obs.Histogram("h", boundaries=bounds)
    for v in a:
        separate.observe(v)
        combined.observe(v)
    for v in b:
        other.observe(v)
        combined.observe(v)
    separate._merge_parts(other.bucket_counts, other.sum)
    assert separate.bucket_counts == combined.bucket_counts
    assert separate.count == combined.count


# ----------------------------------------------------------------------
# Counter monotonicity
# ----------------------------------------------------------------------
@given(increments=st.lists(amounts, max_size=50))
def test_counter_is_monotone_and_exact(increments):
    c = obs.Counter("c")
    seen = 0.0
    for amount in increments:
        c.inc(amount)
        assert c.value >= seen
        seen = c.value
    assert c.value == sum(increments)


@given(amount=st.integers(min_value=1, max_value=10**6))
def test_counter_rejects_any_negative(amount):
    c = obs.Counter("c")
    with pytest.raises(ValueError):
        c.inc(-amount)
    assert c.value == 0.0


# ----------------------------------------------------------------------
# Merge algebra (registries and telemetry blobs)
# ----------------------------------------------------------------------
registry_contents = st.lists(
    st.tuples(st.sampled_from(["counter", "gauge", "hist"]), names, amounts),
    max_size=12)


def _build_registry(contents):
    reg = obs.MetricsRegistry()
    for kind, name, amount in contents:
        if kind == "counter":
            reg.counter(name).inc(amount)
        elif kind == "gauge":
            reg.gauge(name).set(amount)
        else:
            reg.histogram(name, boundaries=(10.0, 100.0)).observe(amount)
    return reg


def _freeze(reg):
    return (reg.counter_values(), reg.gauge_values(),
            {n: (tuple(d["counts"]), d["sum"])
             for n, d in reg.histogram_dicts().items()})


@given(a=registry_contents, b=registry_contents)
def test_registry_merge_commutes(a, b):
    ab = _build_registry(a)
    ab.merge(_build_registry(b))
    ba = _build_registry(b)
    ba.merge(_build_registry(a))
    assert _freeze(ab) == _freeze(ba)


@settings(max_examples=50)
@given(a=registry_contents, b=registry_contents, c=registry_contents)
def test_registry_merge_associates(a, b, c):
    left = _build_registry(a)
    left.merge(_build_registry(b))
    left.merge(_build_registry(c))

    bc = _build_registry(b)
    bc.merge(_build_registry(c))
    right = _build_registry(a)
    right.merge(bc)
    assert _freeze(left) == _freeze(right)


def _blob(contents):
    session = obs.ObsSession()
    scope = session.scope("test")
    for kind, name, amount in contents:
        if kind == "counter":
            scope.registry.counter(name).inc(amount)
        elif kind == "gauge":
            scope.registry.gauge(name).set(amount)
        else:
            scope.registry.histogram(name, boundaries=(10.0, 100.0)) \
                .observe(amount)
    blob = scope.telemetry()
    scope.close()
    return blob


def _blob_freeze(blob):
    return (blob.counters, blob.gauges,
            {n: (tuple(d["counts"]), d["sum"])
             for n, d in blob.histograms.items()})


@given(a=registry_contents, b=registry_contents)
def test_telemetry_merge_commutes(a, b):
    x, y = _blob(a), _blob(b)
    assert _blob_freeze(x.merge(y)) == _blob_freeze(y.merge(x))


@settings(max_examples=50)
@given(a=registry_contents, b=registry_contents, c=registry_contents)
def test_telemetry_merge_associates(a, b, c):
    x, y, z = _blob(a), _blob(b), _blob(c)
    assert _blob_freeze(x.merge(y).merge(z)) == _blob_freeze(x.merge(y.merge(z)))


@given(blobs=st.lists(registry_contents, max_size=5))
def test_merged_equals_left_fold(blobs):
    """``RunTelemetry.merged`` is exactly the pairwise left fold -- the
    sweep runner relies on this when cells complete out of order."""
    built = [_blob(b) for b in blobs]
    folded = obs.RunTelemetry(kind="sweep")
    for blob in built:
        folded = folded.merge(blob)
    assert _blob_freeze(obs.RunTelemetry.merged(built, kind="sweep")) \
        == _blob_freeze(folded)
