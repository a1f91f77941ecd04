"""Unit tests for the tracer's counter store and span hooks."""

import pytest

from repro.simkernel import Simulator
from repro.simkernel.tracing import Tracer


class TestCounters:
    def test_count_increments(self):
        t = Tracer()
        t.count('a')
        t.count('a', 2)
        assert t.counters['a'] == 3

    def test_counters_work_when_tracing_disabled(self):
        # Span recording is off by default; counters are always on.
        t = Tracer()
        assert not t.spans.enabled
        t.count('x')
        assert t.counters['x'] == 1

    def test_missing_counter_is_zero(self):
        t = Tracer()
        assert t.counters['nothing'] == 0

    def test_counters_are_the_registry_store(self):
        t = Tracer()
        assert t.counters is t.metrics.counters
        t.count('hv.wakes', 2)
        t.metrics.scoped('host.h0.').count('placements')
        assert t.metrics.counter_values() == {'host.h0.placements': 1,
                                              'hv.wakes': 2}
        assert t.counters['host.h0.placements'] == 1

    def test_count_keeps_the_registry_checks(self):
        t = Tracer()
        with pytest.raises(ValueError):
            t.count('a', -1)
        t.metrics.set_gauge('g', 1)
        with pytest.raises(TypeError):
            t.count('g')

    def test_simulator_counters_are_its_registry(self):
        sim = Simulator(seed=0)
        assert sim.trace.counters is sim.trace.metrics.counters


class TestObservabilityHooks:
    def test_spans_and_metrics_attached(self):
        t = Tracer()
        assert not t.spans.enabled
        assert t.spans.registry is t.metrics
        assert len(t.metrics) == 0

    def test_span_duration_feeds_metrics(self):
        t = Tracer()
        t.spans.enabled = True
        span = t.spans.begin(0, 'sa.offer', 'v0')
        t.spans.end(23_000, span)
        assert t.metrics.histogram('sa.offer').count == 1
