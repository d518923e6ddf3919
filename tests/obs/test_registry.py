"""Unit tests for the metric primitives and registry."""

import pytest
from hypothesis import given, strategies as st

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS_MS,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_inc_and_identity(self):
        registry = MetricsRegistry()
        counter = registry.counter("boots_total", host="h0")
        counter.inc()
        counter.inc(2.0)
        assert counter.value == 3.0
        assert registry.counter("boots_total", host="h0") is counter

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1.0)

    def test_distinct_labels_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("c", host="a").inc()
        registry.counter("c", host="b").inc(5)
        values = {c.labels: c.value for c in registry.counters()}
        assert values == {(("host", "a"),): 1.0, (("host", "b"),): 5.0}


class TestGauge:
    def test_set_and_add(self):
        gauge = MetricsRegistry().gauge("pool_total", host="h0")
        gauge.set(4.0)
        gauge.add(-1.0)
        assert gauge.value == 3.0


class TestHistogram:
    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=())
        with pytest.raises(ValueError):
            Histogram("h", bounds=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", bounds=(5.0, 2.0))

    def test_observe_buckets(self):
        hist = Histogram("h", bounds=(10.0, 100.0))
        for value in (5.0, 10.0, 50.0, 1_000.0):
            hist.observe(value)
        # 10.0 falls in the le=10 bucket (upper bounds are inclusive).
        assert hist.bucket_counts == [2, 1, 1]
        assert hist.count == 4
        assert hist.sum == pytest.approx(1_065.0)
        assert hist.cumulative_counts() == [2, 3, 4]

    def test_quantile(self):
        hist = Histogram("h", bounds=(10.0, 100.0, 1_000.0))
        for value in (1.0, 2.0, 50.0, 500.0):
            hist.observe(value)
        assert hist.quantile(0.5) == 10.0
        assert hist.quantile(1.0) == 1_000.0
        import math

        assert math.isnan(Histogram("h", bounds=(1.0,)).quantile(0.5))

    def test_merge_requires_identical_bounds(self):
        a = Histogram("h", bounds=(1.0, 2.0))
        b = Histogram("h", bounds=(1.0, 3.0))
        with pytest.raises(ValueError):
            a.merge_from(b)

    def test_registry_rejects_conflicting_bounds(self):
        registry = MetricsRegistry()
        registry.histogram("h", bounds=(1.0, 2.0), host="a")
        with pytest.raises(ValueError):
            registry.histogram("h", bounds=(1.0, 9.0), host="a")


class TestRegistryMerge:
    def test_prometheus_text_shape(self):
        registry = MetricsRegistry()
        registry.counter("boots_total", help="Boots", host="h0").inc()
        registry.histogram(
            "lat_ms", bounds=(10.0, 100.0), host='h"0'
        ).observe(50.0)
        text = registry.to_prometheus()
        assert "# HELP boots_total Boots" in text
        assert "# TYPE boots_total counter" in text
        assert 'boots_total{host="h0"} 1' in text
        assert "# TYPE lat_ms histogram" in text
        # Label escaping + cumulative buckets + +Inf catch-all.
        assert 'lat_ms_bucket{host="h\\"0",le="100"} 1' in text
        assert 'lat_ms_bucket{host="h\\"0",le="+Inf"} 1' in text
        assert 'lat_ms_sum{host="h\\"0"} 50' in text
        assert 'lat_ms_count{host="h\\"0"} 1' in text

    @given(
        st.lists(
            st.lists(
                st.floats(min_value=0.0, max_value=60_000.0, allow_nan=False),
                max_size=30,
            ),
            min_size=1,
            max_size=6,
        ),
        st.randoms(use_true_random=False),
    )
    def test_histogram_merge_lossless_and_order_independent(
        self, shards, rng
    ):
        """Property: merging per-host histograms loses no observations
        and gives the same result in any merge order."""
        def build(observations):
            hist = Histogram("h", bounds=DEFAULT_LATENCY_BUCKETS_MS)
            for value in observations:
                hist.observe(value)
            return hist

        merged = Histogram("h", bounds=DEFAULT_LATENCY_BUCKETS_MS)
        for shard in shards:
            merged.merge_from(build(shard))

        shuffled = list(shards)
        rng.shuffle(shuffled)
        merged_other = Histogram("h", bounds=DEFAULT_LATENCY_BUCKETS_MS)
        for shard in shuffled:
            merged_other.merge_from(build(shard))

        flat = [v for shard in shards for v in shard]
        assert merged.count == len(flat)  # count-lossless
        assert merged.sum == pytest.approx(sum(flat))
        assert merged.bucket_counts == build(flat).bucket_counts
        assert merged.bucket_counts == merged_other.bucket_counts  # order-free
        assert merged.sum == pytest.approx(merged_other.sum)


class TestHistogramOverflow:
    """Tail observations past the last finite bound must be loud."""

    def test_overflow_count_tracks_inf_bucket(self):
        hist = Histogram("h", bounds=(1.0, 10.0))
        for value in (0.5, 5.0, 11.0, 1e9):
            hist.observe(value)
        assert hist.overflow_count == 2
        assert hist.count == 4

    def test_overflow_quantile_reports_inf_not_clamp(self):
        hist = Histogram("h", bounds=(1.0, 10.0))
        hist.observe(0.5)
        hist.observe(100.0)
        # p99 lands among the overflow observations: never the top
        # finite bound (10.0), which would silently hide the tail.
        assert hist.quantile(0.99) == float("inf")
        assert hist.quantile(0.25) == 1.0

    def test_strict_quantile_raises_on_overflow(self):
        hist = Histogram("h", bounds=(1.0,))
        hist.observe(50.0)
        with pytest.raises(OverflowError, match="widen the buckets"):
            hist.quantile(0.5, strict=True)

    def test_quantile_resolvable(self):
        hist = Histogram("h", bounds=(1.0, 10.0))
        assert not hist.quantile_resolvable(0.5)  # empty
        hist.observe(0.5)
        hist.observe(100.0)
        assert hist.quantile_resolvable(0.5)
        assert not hist.quantile_resolvable(0.99)

    def test_empty_histogram_quantile_is_nan(self):
        hist = Histogram("h", bounds=(1.0,))
        assert hist.quantile(0.5) != hist.quantile(0.5)  # NaN
        assert hist.overflow_count == 0

    def test_quantile_range_validated(self):
        hist = Histogram("h", bounds=(1.0,))
        with pytest.raises(ValueError):
            hist.quantile(1.5)
        with pytest.raises(ValueError):
            hist.quantile_resolvable(-0.1)

    def test_wide_buckets_resolve_scenario_tails(self):
        from repro.obs import WIDE_LATENCY_BUCKETS_MS

        hist = Histogram("h", bounds=WIDE_LATENCY_BUCKETS_MS)
        for value in (5.0, 80.0, 900.0, 30_000.0):
            hist.observe(value)
        assert hist.overflow_count == 0
        assert hist.quantile(0.999, strict=True) < float("inf")
