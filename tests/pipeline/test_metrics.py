"""Tests for the pipeline's metric instruments, which live in repro.obs."""

from __future__ import annotations

import json

import pytest

from repro.obs.registry import DEFAULT_BUCKETS, Counter, Histogram, Registry, Timer


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("items")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative_increments(self):
        with pytest.raises(ValueError, match="only go up"):
            Counter("items").inc(-1)


class TestTimer:
    def test_observe_tracks_count_total_max(self):
        timer = Timer("compress_s")
        timer.observe(0.2)
        timer.observe(0.6)
        assert timer.count == 2
        assert timer.total_s == pytest.approx(0.8)
        assert timer.max_s == pytest.approx(0.6)
        assert timer.mean_s == pytest.approx(0.4)

    def test_empty_timer_mean_is_zero(self):
        assert Timer("idle").mean_s == 0.0

    def test_context_manager_records_one_observation(self):
        timer = Timer("block")
        with timer.time():
            pass
        assert timer.count == 1
        assert timer.total_s >= 0.0

    def test_to_dict_round_trips_through_json(self):
        timer = Timer("t")
        timer.observe(1.5)
        data = json.loads(json.dumps(timer.to_dict()))
        assert data == {"count": 1, "total_s": 1.5, "mean_s": 1.5, "max_s": 1.5}


class TestHistogram:
    def test_values_land_in_inclusive_upper_bound_buckets(self):
        hist = Histogram("points", buckets=[10, 100])
        hist.observe(5)
        hist.observe(10)  # inclusive: still the first bucket
        hist.observe(99)
        hist.observe(500)  # beyond the last bound -> overflow
        data = hist.to_dict()
        assert data["buckets"] == [
            {"le": 10.0, "count": 2},
            {"le": 100.0, "count": 1},
        ]
        assert data["overflow"] == 1
        assert data["count"] == 4
        assert data["min"] == 5.0
        assert data["max"] == 500.0
        assert data["mean"] == pytest.approx((5 + 10 + 99 + 500) / 4)

    def test_empty_histogram_exports_null_extrema(self):
        data = Histogram("empty").to_dict()
        assert data["count"] == 0
        assert data["min"] is None and data["max"] is None
        assert len(data["buckets"]) == len(DEFAULT_BUCKETS)

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("bad", buckets=[10, 5])


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        metrics = Registry()
        assert metrics.counter("a") is metrics.counter("a")
        assert metrics.timer("b") is metrics.timer("b")
        assert metrics.histogram("c") is metrics.histogram("c")

    def test_to_dict_groups_by_instrument_kind(self):
        metrics = Registry()
        metrics.counter("items").inc(3)
        metrics.timer("run_s").observe(0.1)
        metrics.histogram("sizes").observe(42)
        data = json.loads(json.dumps(metrics.to_dict()))
        assert data["counters"] == {"items": 3}
        assert data["timers"]["run_s"]["count"] == 1
        assert data["histograms"]["sizes"]["count"] == 1

    def test_aggregation_totals_match_observations(self):
        """Per-item samples aggregate to exact run totals."""
        metrics = Registry()
        sizes = [100, 250, 7, 1810]
        for size in sizes:
            metrics.counter("points_in").inc(size)
            metrics.histogram("points_in").observe(size)
        assert metrics.counter("points_in").value == sum(sizes)
        hist = metrics.histogram("points_in").to_dict()
        assert hist["count"] == len(sizes)
        assert hist["sum"] == pytest.approx(sum(sizes))
        in_buckets = sum(b["count"] for b in hist["buckets"]) + hist["overflow"]
        assert in_buckets == len(sizes)

