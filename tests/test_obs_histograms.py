"""Unit tests for the log-bucketed histogram and the metrics registry."""

import pytest

import pickle

from repro.obs.histograms import (
    LogHistogram,
    MetricsRegistry,
    SUB_BUCKETS,
)
from repro.simkernel.units import US


class TestLogHistogram:
    def test_empty(self):
        h = LogHistogram('x')
        assert h.count == 0
        assert h.mean() == 0.0
        assert h.percentile(50) == 0.0
        assert h.summary()['count'] == 0

    def test_single_value_exact(self):
        h = LogHistogram('x')
        h.record(23 * US)
        assert h.min == h.max == 23 * US
        assert h.p50() == 23 * US
        assert h.p99() == 23 * US

    def test_small_values_are_exact(self):
        h = LogHistogram('x')
        for v in (0, 1, 5, 15):
            h.record(v)
        assert h._bucket_index(0) == 0
        assert h._bucket_index(SUB_BUCKETS - 1) == SUB_BUCKETS - 1
        assert h.min == 0
        assert h.max == 15

    def test_negative_rejected(self):
        h = LogHistogram('x')
        with pytest.raises(ValueError):
            h.record(-1)

    def test_bucket_bounds_contain_value(self):
        for value in (3, 17, 100, 1023, 20_000, 23_456, 10**9):
            index = LogHistogram._bucket_index(value)
            low, high = LogHistogram._bucket_bounds(index)
            assert low <= value < high

    def test_record_files_into_bucket_index(self):
        # record() inlines _bucket_index; the two must agree everywhere,
        # octave edges included.
        values = [0, 1, SUB_BUCKETS - 1, SUB_BUCKETS, SUB_BUCKETS + 1,
                  23_456, 10**9]
        values += [(1 << k) + d for k in range(4, 40) for d in (-1, 0, 1)]
        for value in values:
            h = LogHistogram('x')
            h.record(value)
            assert h._buckets == {LogHistogram._bucket_index(value): 1}

    def test_relative_error_in_sa_band(self):
        # The paper's 20-26 us band must be resolved to ~1 us, i.e.
        # better than 1/SUB_BUCKETS relative error.
        h = LogHistogram('x')
        for us in range(20, 27):
            for __ in range(100):
                h.record(us * US)
        assert 20 * US <= h.p50() <= 26 * US
        assert abs(h.p50() - 23 * US) <= 2 * US
        assert h.p99() <= 26 * US
        assert h.percentile(0) == 20 * US
        assert h.percentile(100) == 26 * US

    def test_percentile_clamped_to_extremes(self):
        h = LogHistogram('x')
        h.record(1000)
        h.record(1001)
        assert h.percentile(0) >= 1000
        assert h.percentile(100) <= 1001

    def test_percentile_range_checked(self):
        h = LogHistogram('x')
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_copy_is_independent(self):
        a = LogHistogram('a')
        a.record(5)
        b = a.copy()
        b.record(6)
        assert a.count == 1
        assert b.count == 2


class TestMetrics:
    def test_counter_monotonic(self):
        r = MetricsRegistry()
        r.count('c')
        r.count('c', 4)
        assert r.counters['c'] == 5
        with pytest.raises(ValueError):
            r.count('c', -1)
        with pytest.raises(ValueError):
            r.scoped('host.h0.').count('c', -1)
        assert r.counters['c'] == 5
        assert 'host.h0.c' not in r

    def test_gauge_last_write_wins(self):
        r = MetricsRegistry()
        r.set_gauge('g', 3)
        r.set_gauge('g', 1)
        assert r.gauges == {'g': 1}


class TestMetricsRegistry:
    def test_get_or_create(self):
        r = MetricsRegistry()
        assert r.histogram('a') is r.histogram('a')
        r.count('b', 0)
        assert len(r) == 2
        assert r.counters['never'] == 0        # reads create nothing
        assert len(r) == 2

    def test_kind_is_sticky(self):
        r = MetricsRegistry()
        r.count('a')
        with pytest.raises(TypeError):
            r.histogram('a')
        with pytest.raises(TypeError):
            r.set_gauge('a', 1)
        r.set_gauge('g', 1)
        with pytest.raises(TypeError):
            r.count('g')
        with pytest.raises(TypeError):
            r.scoped('').count('g')
        r.histogram('h')
        with pytest.raises(TypeError):
            r.count('h')
        with pytest.raises(TypeError):
            r.scoped('').set_gauge('h', 2)
        assert r.counters == {'a': 1}
        assert r.gauges == {'g': 1}

    def test_prefix_views(self):
        r = MetricsRegistry()
        r.count('irs.sa_sent', 3)
        r.count('hv.wakes', 1)
        r.histogram('sa.offer').record(23 * US)
        assert r.counter_values(prefixes=('irs.',)) == {'irs.sa_sent': 3}
        assert list(r.histogram_summaries()) == ['sa.offer']
        assert list(r.counter_values()) == ['hv.wakes', 'irs.sa_sent']

    def test_snapshot_is_frozen(self):
        r = MetricsRegistry()
        r.count('c')
        r.set_gauge('g', 1)
        r.histogram('h').record(10)
        r.scoped('host.h0.', host='h0').count('x')
        snap = r.snapshot()
        r.count('c', 10)
        r.set_gauge('g', 2)
        r.histogram('h').record(20)
        assert snap.counters['c'] == 1
        assert snap.gauges['g'] == 1
        assert snap.histograms['h'].count == 1
        assert snap.metric_meta('host.h0.x') == ('x', {'host': 'h0'})

    def test_snapshot_pickles_with_its_kind_checks(self):
        r = MetricsRegistry()
        r.count('c', 2)
        r.set_gauge('g', 1)
        clone = pickle.loads(pickle.dumps(r.snapshot()))
        assert clone.counters == {'c': 2}
        assert clone.counters['missing'] == 0
        with pytest.raises(TypeError):
            clone.count('g')

    def test_contains_every_kind(self):
        r = MetricsRegistry()
        r.set_gauge('g', 1)
        r.count('c')
        r.histogram('h')
        assert 'g' in r and 'c' in r and 'h' in r
        assert 'x' not in r
        assert len(r) == 3
