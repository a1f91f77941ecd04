"""Unit tests for the span recorder (nesting, ring bound, histograms)."""

import pytest

from repro.obs.histograms import MetricsRegistry
from repro.obs.spans import SpanRecorder


def recorder(**kwargs):
    kwargs.setdefault('enabled', True)
    return SpanRecorder(**kwargs)


class TestDisabled:
    def test_all_entry_points_are_noops(self):
        r = SpanRecorder(enabled=False)
        assert r.begin(0, 'p', 't') is None
        assert r.end_phase(1, 'p', 't') is None
        assert r.instant(1, 'p', 't') is None
        r.end(1, None)
        assert r.spans == []

    def test_end_of_disabled_begin_handle_is_noop(self):
        r = recorder()
        r.enabled = False
        handle = r.begin(0, 'p', 't')
        r.enabled = True
        r.end(5, handle)
        assert r.spans == []


class TestNesting:
    def test_begin_end(self):
        r = recorder()
        span = r.begin(10, 'sa.offer', 'fg.v0', vm='fg')
        r.end(35, span, outcome='acked')
        done = r.spans
        assert len(done) == 1
        assert done[0].duration_ns == 25
        assert done[0].depth == 0
        assert done[0].detail == {'vm': 'fg', 'outcome': 'acked'}

    def test_children_get_depth(self):
        r = recorder()
        outer = r.begin(0, 'outer', 't')
        inner = r.begin(1, 'inner', 't')
        assert inner.depth == 1
        r.end(2, inner)
        r.end(3, outer)
        assert [s.phase for s in r.spans] == ['inner', 'outer']

    def test_parent_close_closes_open_children(self):
        r = recorder()
        outer = r.begin(0, 'outer', 't')
        r.begin(1, 'child', 't')
        r.end(9, outer)
        child = r.spans_for(phase='child')[0]
        assert child.end_ns == 9
        assert r.open_spans() == []

    def test_double_end_is_noop(self):
        r = recorder()
        span = r.begin(0, 'p', 't')
        r.end(1, span)
        r.end(2, span)
        assert len(r.spans) == 1

    def test_end_phase_matches_innermost(self):
        r = recorder()
        r.begin(0, 'p', 't', which='outer')
        r.begin(1, 'p', 't', which='inner')
        closed = r.end_phase(2, 'p', 't')
        assert closed.detail['which'] == 'inner'

    def test_end_phase_no_match(self):
        r = recorder()
        r.begin(0, 'a', 't')
        assert r.end_phase(1, 'b', 't') is None
        assert r.end_phase(1, 'a', 'other-track') is None

    def test_tracks_are_independent(self):
        r = recorder()
        r.begin(0, 'p', 'v0')
        r.begin(1, 'p', 'v1')
        r.end_phase(2, 'p', 'v0')
        assert len(r.open_spans()) == 1
        assert r.open_spans()[0].track == 'v1'

    def test_instant_is_zero_duration(self):
        r = recorder()
        span = r.instant(5, 'sa.preempt_fire', 'v0', block=True)
        assert span.duration_ns == 0
        assert r.spans_for(phase='sa.preempt_fire')[0].detail == {
            'block': True}


class TestRingBound:
    def test_capacity_enforced(self):
        r = recorder(max_spans=3)
        for i in range(5):
            r.instant(i, 'p', 't')
        assert len(r.spans) == 3
        assert r.dropped == 2
        # Oldest first, newest retained.
        assert [s.begin_ns for s in r.spans] == [2, 3, 4]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            SpanRecorder(max_spans=0)

    def test_clear(self):
        r = recorder(max_spans=2)
        for i in range(4):
            r.instant(i, 'p', 't')
        r.begin(9, 'p', 't')
        r.clear()
        assert r.spans == []
        assert r.dropped == 0
        assert r.open_spans() == []


class TestHistogramFeed:
    def test_durations_feed_phase_histogram(self):
        reg = MetricsRegistry()
        r = recorder(registry=reg)
        span = r.begin(0, 'sa.offer', 't')
        r.end(23_000, span)
        assert reg.histogram('sa.offer').count == 1
        assert reg.histogram('sa.offer').max == 23_000

    def test_flush_open_truncates_without_recording(self):
        reg = MetricsRegistry()
        r = recorder(registry=reg)
        r.begin(0, 'sa.offer', 't')
        r.flush_open(1_000_000)
        spans = r.spans
        assert len(spans) == 1
        assert spans[0].detail == {'truncated': True}
        # A run-boundary truncation is not a protocol latency sample.
        metric = reg.histograms.get('sa.offer')
        assert metric is None or metric.count == 0
        assert r.open_spans() == []
