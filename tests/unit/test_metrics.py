"""Unit tests for repro.obs.metrics: series, histogram, registry, tables."""

import pytest

from repro.obs.metrics import (Histogram, MetricsRegistry, Series,
                               format_table, percentile)


def test_counter_increment():
    metrics = MetricsRegistry()
    metrics.increment("x")
    metrics.increment("x", 2.5)
    assert metrics.counter("x") == 3.5
    assert metrics.counter("missing") == 0.0


def test_series_record_and_stats():
    metrics = MetricsRegistry()
    for t, v in [(0, 1.0), (1, 3.0), (2, 2.0)]:
        metrics.record("s", t, v)
    series = metrics.series("s")
    assert series.mean() == 2.0
    assert series.max() == 3.0
    assert len(series) == 3


def test_empty_series_stats_are_zero():
    series = Series("empty")
    assert series.mean() == 0.0
    assert series.max() == 0.0
    assert series.percentile(99) == 0.0


def test_percentile_interpolates():
    series = Series("p")
    for i in range(1, 101):
        series.append(float(i), float(i))
    assert series.percentile(0) == 1.0
    assert series.percentile(100) == 100.0
    assert series.percentile(50) == pytest.approx(50.5)


def test_percentile_single_point():
    series = Series("p")
    series.append(0.0, 7.0)
    assert series.percentile(99) == 7.0


def test_series_percentile_sorts_before_the_shared_helper():
    series = Series("unsorted")
    for value in (9.0, 1.0, 5.0, 3.0):
        series.append(0.0, value)
    assert series.percentile(50) == percentile([1.0, 3.0, 5.0, 9.0], 50) == 4.0
    assert percentile([], 50) == 0.0
    assert percentile([2.0, 4.0], 25) == 2.5


def test_resample_buckets_means():
    series = Series("r")
    series.append(0.0, 1.0)
    series.append(5.0, 3.0)
    series.append(12.0, 10.0)
    assert series.resample(10.0) == [(0.0, 2.0), (10.0, 10.0)]


def test_resample_negative_times_floor_to_lower_edge():
    # Regression: bucket starts must floor toward -inf, not truncate
    # toward zero — a point at t=-2.5 belongs to the [-10, 0) bucket.
    series = Series("neg")
    series.append(-2.5, 4.0)
    series.append(-12.0, 2.0)
    series.append(1.0, 6.0)
    assert series.resample(10.0) == [(-20.0, 2.0), (-10.0, 4.0), (0.0, 6.0)]


def test_resample_non_multiple_start_alignment():
    series = Series("off")
    series.append(7.0, 1.0)
    series.append(13.0, 3.0)
    series.append(19.9, 5.0)
    assert series.resample(10.0) == [(0.0, 1.0), (10.0, 4.0)]


def test_resample_fractional_step():
    series = Series("frac")
    series.append(0.2, 1.0)
    series.append(0.7, 3.0)
    assert series.resample(0.5) == [(0.0, 1.0), (0.5, 3.0)]


def test_series_names_sorted():
    metrics = MetricsRegistry()
    metrics.record("b", 0, 0)
    metrics.record("a", 0, 0)
    assert metrics.series_names() == ["a", "b"]


def test_format_table_alignment():
    table = format_table(["name", "value"],
                         [["x", 1], ["longer-name", 22]], title="T")
    lines = table.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "value" in lines[1]
    assert len(lines) == 5
    assert all(len(line) <= len(max(lines, key=len)) for line in lines)


# --------------------------------------------------------------------- #
# histogram
# --------------------------------------------------------------------- #

def test_histogram_basic_stats():
    hist = Histogram("depth")
    for value in (0.5, 1.5, 1.5, 4.0, 20.0):
        hist.record(value)
    assert hist.count == 5
    assert hist.sum == pytest.approx(27.5)
    assert hist.min == 0.5
    assert hist.max == 20.0
    assert hist.mean == pytest.approx(5.5)


def test_log_bucket_relative_error_bound():
    hist = Histogram("lat")
    values = [0.01 * (1.1 ** i) for i in range(100)]
    for value in values:
        hist.record(value)
    true = sorted(values)
    # growth per bucket = 2^(1/8) ≈ 1.09: percentiles within ~9 %
    for q in (50, 95, 99):
        exact = true[min(int(q / 100.0 * len(true)), len(true) - 1)]
        assert hist.percentile(q) == pytest.approx(exact, rel=0.15)


def test_log_bucket_zero_and_negative_values():
    hist = Histogram("z")
    hist.record(0.0)
    hist.record(-1.0)
    hist.record(2.0)
    assert hist.count == 3
    assert hist.min == -1.0
    assert hist.percentile(50) <= 0.0
    assert hist.max == 2.0


def test_percentiles_match_series_percentile():
    """Histogram percentiles track Series.percentile within bucket error."""
    values = [float(v) for v in range(1, 201)]
    series = Series("ref")
    hist = Histogram("h")
    for v in values:
        series.append(0.0, v)
        hist.record(v)
    for q in (50, 90, 95, 99):
        assert hist.percentile(q) == pytest.approx(series.percentile(q),
                                                   rel=0.06)


def test_percentile_clamped_to_min_max():
    hist = Histogram("clamp")
    hist.record(3.0)
    assert hist.percentile(0) == 3.0
    assert hist.percentile(100) == 3.0
    assert hist.percentile(50) == 3.0


def test_empty_histogram_stats_are_zero():
    hist = Histogram("empty")
    assert hist.count == 0
    assert hist.min == 0.0
    assert hist.max == 0.0
    assert hist.mean == 0.0
    assert hist.percentile(99) == 0.0
    assert hist.cumulative_buckets() == []


def test_cumulative_buckets_monotonic():
    hist = Histogram("c")
    for value in (0.0, 0.5, 1.5, 3.0, 3.5, 7.0, 9.0):
        hist.record(value)
    buckets = hist.cumulative_buckets()
    counts = [count for _, count in buckets]
    uppers = [upper for upper, _ in buckets]
    assert counts == sorted(counts)
    assert counts[-1] == hist.count
    assert uppers == sorted(uppers) and uppers[0] == 0.0
    assert uppers[-1] >= hist.max


def test_snapshot_is_deterministic():
    def build():
        hist = Histogram("s")
        for v in (1.0, 2.0, 10.0, 0.4):
            hist.record(v)
        return hist.snapshot()

    assert build() == build()


def test_registry_histogram_get_or_create():
    registry = MetricsRegistry()
    first = registry.histogram("lat")
    second = registry.histogram("lat")
    assert first is second
    registry.histogram("depth")
    assert registry.histogram_names() == ["depth", "lat"]
