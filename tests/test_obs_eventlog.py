"""EventLog ring, JSONL determinism, residency replay, and the
Prometheus-style exposition snapshot."""

import json

import pytest

from repro.obs.eventlog import (
    EVENT_MIGRATION_ABORT,
    EVENT_MIGRATION_DONE,
    EVENT_MIGRATION_START,
    EVENT_ORPHANED,
    EVENT_PARKED,
    EVENT_PLACE,
    EVENT_RECOVERED,
    EVENT_REJECT,
    EVENT_UNPARKED,
    EventLog,
    format_residency,
    read_jsonl,
    residency_timeline,
    vm_names,
)
from repro.obs.exposition import render_exposition, write_exposition
from repro.obs.histograms import MetricsRegistry


class TestRing:
    def test_append_returns_stored_dict(self):
        log = EventLog()
        event = log.append(10, EVENT_PLACE, vm='a', host='h0')
        assert event == {'t': 10, 'kind': EVENT_PLACE,
                         'vm': 'a', 'host': 'h0'}
        assert log.events == [event]

    def test_bounded_ring_drops_oldest_first(self):
        log = EventLog(max_events=4)
        for i in range(6):
            log.append(i, EVENT_PLACE, vm='vm%d' % i)
        assert len(log) == 4
        assert log.dropped == 2
        assert [e['t'] for e in log.events] == [2, 3, 4, 5]

    def test_max_events_must_be_positive(self):
        with pytest.raises(ValueError):
            EventLog(max_events=0)

    def test_counts_sorted_by_kind(self):
        log = EventLog()
        log.append(1, 'z.kind')
        log.append(2, 'a.kind')
        log.append(3, 'z.kind')
        assert log.counts() == {'a.kind': 1, 'z.kind': 2}
        assert list(log.counts()) == ['a.kind', 'z.kind']

    def test_clear(self):
        log = EventLog(max_events=1)
        log.append(1, EVENT_PLACE)
        log.append(2, EVENT_PLACE)
        log.clear()
        assert len(log) == 0
        assert log.dropped == 0


class TestJsonl:
    def _populate(self, log):
        log.append(5, EVENT_PLACE, vm='a', host='h0',
                   scores={'h1': 1.0, 'h0': 0.0})
        log.append(9, EVENT_ORPHANED, vm='a', cause='host_crash',
                   host='h0', flow=3)

    def test_byte_identical_for_identical_streams(self):
        one, two = EventLog(), EventLog()
        self._populate(one)
        self._populate(two)
        assert one.to_jsonl() == two.to_jsonl()

    def test_lines_have_sorted_keys(self):
        log = EventLog()
        self._populate(log)
        for line in log.to_jsonl().splitlines():
            keys = list(json.loads(line))
            assert keys == sorted(keys)

    def test_round_trip(self, tmp_path):
        log = EventLog()
        self._populate(log)
        path = tmp_path / 'events.jsonl'
        assert log.write_jsonl(str(path)) == 2
        assert read_jsonl(str(path)) == log.to_dicts()

    def test_empty_log_writes_empty_file(self, tmp_path):
        path = tmp_path / 'events.jsonl'
        assert EventLog().write_jsonl(str(path)) == 0
        assert path.read_text() == ''


class TestResidency:
    def crash_story(self):
        """place -> migrate (rolled back) -> crash orphan -> re-place."""
        log = EventLog()
        log.append(1, EVENT_PLACE, vm='srv0', host='h0', policy='first_fit')
        log.append(2, EVENT_PLACE, vm='srv1', host='h1', policy='first_fit')
        log.append(3, EVENT_MIGRATION_START, vm='srv0', source='h0',
                   target='h1', reason='rebalance')
        log.append(4, EVENT_MIGRATION_ABORT, vm='srv0', source='h0',
                   target='h1', reason='target_crash', rollback=True)
        log.append(5, EVENT_ORPHANED, vm='srv0', cause='host_crash',
                   host='h0')
        log.append(6, EVENT_RECOVERED, vm='srv0', host='h1', attempts=1)
        return log

    def test_timeline_replays_the_crash_story(self):
        steps = residency_timeline(self.crash_story().events, 'srv0')
        assert [(s['step'], s['host']) for s in steps] == [
            ('place', 'h0'),
            ('migrate_out', 'h0'),
            ('rollback', 'h0'),
            ('orphaned', 'h0'),
            ('recovered', 'h1'),
        ]

    def test_timeline_only_sees_its_vm(self):
        steps = residency_timeline(self.crash_story().events, 'srv1')
        assert [(s['step'], s['host']) for s in steps] == [('place', 'h1')]

    def test_timeline_works_from_jsonl_alone(self, tmp_path):
        log = self.crash_story()
        path = tmp_path / 'events.jsonl'
        log.write_jsonl(str(path))
        replayed = residency_timeline(read_jsonl(str(path)), 'srv0')
        assert replayed == residency_timeline(log.events, 'srv0')

    def test_remaining_steps(self):
        log = EventLog()
        log.append(1, EVENT_REJECT, vm='a', reason='capacity')
        log.append(2, EVENT_MIGRATION_START, vm='b', source='h0',
                   target='h1')
        log.append(3, EVENT_MIGRATION_DONE, vm='b', source='h0',
                   target='h1')
        log.append(4, EVENT_MIGRATION_ABORT, vm='b', rollback=False)
        log.append(5, EVENT_PARKED, vm='b', attempts=3)
        log.append(6, EVENT_UNPARKED, vm='b', trigger='h0')
        assert [s['step'] for s in residency_timeline(log.events, 'a')] \
            == ['reject']
        assert [s['step'] for s in residency_timeline(log.events, 'b')] \
            == ['migrate_out', 'migrate_in', 'abort', 'parked', 'unparked']

    def test_format_residency(self):
        steps = residency_timeline(self.crash_story().events, 'srv0')
        assert format_residency(steps) == (
            'place@h0 -> migrate_out@h0 -> rollback@h0 -> orphaned@h0'
            ' -> recovered@h1')
        assert format_residency([]) == '(no events)'

    def test_vm_names_first_seen_order(self):
        log = self.crash_story()
        log.append(7, EVENT_PLACE, vm='aaa', host='h0')
        assert vm_names(log.events) == ['srv0', 'srv1', 'aaa']


class TestExposition:
    def test_scoped_counters_fold_into_labelled_family(self):
        registry = MetricsRegistry()
        registry.scoped('host.h0.', host='h0').count('placements', 3)
        registry.scoped('host.h1.', host='h1').count('placements', 5)
        text = render_exposition(registry)
        assert '# TYPE repro_placements_total counter' in text
        assert 'repro_placements_total{host="h0"} 3' in text
        assert 'repro_placements_total{host="h1"} 5' in text

    def test_gauges_and_histograms(self):
        registry = MetricsRegistry()
        registry.set_gauge('pressure', 0.25)
        registry.histogram('lat_ns').record(1000)
        registry.histogram('lat_ns').record(2000)
        text = render_exposition(registry)
        assert '# TYPE repro_pressure gauge' in text
        assert 'repro_pressure 0.25' in text
        assert '# TYPE repro_lat_ns summary' in text
        assert 'repro_lat_ns{quantile="0.5"}' in text
        assert 'repro_lat_ns_count 2' in text

    def test_output_is_deterministic(self):
        def build():
            registry = MetricsRegistry()
            registry.scoped('host.b.', host='b').count('x')
            registry.scoped('host.a.', host='a').count('x')
            registry.set_gauge('g', 1)
            return render_exposition(registry)
        assert build() == build()

    def test_mixed_kind_family_raises(self):
        registry = MetricsRegistry()
        registry.scoped('host.h0.', host='h0').count('m')
        registry.scoped('host.h1.', host='h1').set_gauge('m', 1)
        with pytest.raises(TypeError):
            render_exposition(registry)

    def test_write_exposition_counts_samples(self, tmp_path):
        registry = MetricsRegistry()
        registry.count('a')
        registry.set_gauge('b', 2)
        path = tmp_path / 'metrics.prom'
        assert write_exposition(str(path), registry) == 2
        assert path.read_text().endswith('\n')

    def test_prefix_filter(self):
        registry = MetricsRegistry()
        registry.count('keep.a')
        registry.count('drop.b')
        text = render_exposition(registry, prefixes=('keep.',))
        assert 'keep_a' in text
        assert 'drop_b' not in text
