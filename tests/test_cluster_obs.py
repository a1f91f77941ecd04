"""Cluster observability plane: per-host metric scope isolation, the
always-on health event log and its byte-deterministic JSONL export, the
cluster-health residency reconstruction, flow-stitched Perfetto traces,
and the exposition snapshot of a cluster run."""

import functools
import json

from repro.cluster import Cluster, HostSpec, VmRequest, run_consolidation
from repro.experiments.harness import ObservabilityConfig
from repro.obs.eventlog import (
    EVENT_HOST_CRASH,
    EVENT_MIGRATION_START,
    EVENT_ORPHANED,
    EVENT_PLACE,
    EVENT_RECOVERED,
    read_jsonl,
    residency_timeline,
    vm_names,
)
from repro.obs.exporters import (
    PID_CLUSTER_BASE,
    load_chrome_trace,
    validate_chrome_trace,
)
from repro.obs.report import drop_warnings
from repro.obs.spans import SpanRecorder
from repro.simkernel import Simulator, tracing
from repro.simkernel.units import MS

CHAOS_KWARGS = dict(strategy='irs', placement='first_fit', seed=0,
                    faults='cluster-chaos')


def _chaos_run(**overrides):
    kwargs = dict(CHAOS_KWARGS)
    kwargs.update(overrides)
    return run_consolidation(**kwargs)


class TestScopedHostMetrics:
    """Satellite: each host publishes into its own counter scope, so
    per-host monitors cannot cross-contaminate."""

    def test_hosts_get_distinct_scopes(self):
        sim = Simulator(seed=0)
        cluster = Cluster(sim, [HostSpec('h0', n_pcpus=2),
                                HostSpec('h1', n_pcpus=2)])
        h0, h1 = cluster.hosts
        h0.metrics.count('placements', 3)
        registry = sim.trace.metrics
        assert registry.counters['host.h0.placements'] == 3
        # The other host's scope is untouched — not even created.
        assert 'host.h1.placements' not in registry
        h1.metrics.count('placements')
        assert registry.counters['host.h0.placements'] == 3
        assert registry.counters['host.h1.placements'] == 1

    def test_scope_labels_carry_the_host_name(self):
        sim = Simulator(seed=0)
        cluster = Cluster(sim, [HostSpec('h0', n_pcpus=2)])
        cluster.hosts[0].metrics.count('placements')
        family, labels = sim.trace.metrics.metric_meta(
            'host.h0.placements')
        assert family == 'placements'
        assert labels == {'host': 'h0'}

    def test_per_host_placements_sum_to_cluster_total(self):
        sim = Simulator(seed=0)
        cluster = Cluster(sim, [HostSpec('h0', n_pcpus=4),
                                HostSpec('h1', n_pcpus=4)])
        cluster.start()
        for i in range(3):
            sim.at(10 * MS + i * 10 * MS, cluster.submit,
                   VmRequest('vm%d' % i, n_vcpus=2, workload='hogs'))
        sim.run_until(200 * MS)
        registry = sim.trace.metrics
        total = sum(registry.counters['host.%s.placements' % host.name]
                    for host in cluster.hosts)
        assert total == 3

    def test_monitor_windows_per_host(self):
        result = _chaos_run()
        # The scoped monitor gauges are per-run state, but the event
        # log records every control-plane decision with its host; the
        # same chaos run must involve more than one host.
        hosts = {e['host'] for e in result['events']
                 if e['kind'] == EVENT_PLACE}
        assert len(hosts) > 1


class TestHealthEventLog:
    def test_event_log_always_on(self):
        result = _chaos_run()
        assert result['events'], 'no events recorded without observe='
        assert result['event_counts'].get(EVENT_PLACE, 0) > 0
        assert result['event_counts'].get(EVENT_HOST_CRASH, 0) > 0

    def test_place_events_carry_policy_scores(self):
        result = _chaos_run()
        place = next(e for e in result['events']
                     if e['kind'] == EVENT_PLACE)
        assert place['policy'] == 'first_fit'
        assert isinstance(place['scores'], dict)
        assert place['host'] in place['scores']

    def test_migration_events_carry_flow_ids(self):
        result = _chaos_run()
        starts = [e for e in result['events']
                  if e['kind'] == EVENT_MIGRATION_START]
        assert starts
        flows = [e['flow'] for e in starts]
        assert all(isinstance(f, int) for f in flows)
        assert len(set(flows)) == len(flows), 'flow ids must be unique'

    def test_jsonl_byte_identical_across_same_seed_runs(self, tmp_path):
        """Satellite: the chaos determinism gate for the event log."""
        paths = []
        for i in range(2):
            path = tmp_path / ('events%d.jsonl' % i)
            _chaos_run(observe=ObservabilityConfig(
                spans=False, events_out=str(path)))
            paths.append(path)
        first, second = (p.read_bytes() for p in paths)
        assert first == second
        assert first, 'export produced an empty log'

    def test_summary_is_deterministic(self):
        one = _chaos_run()
        two = _chaos_run()
        assert (json.dumps(one, sort_keys=True)
                == json.dumps(two, sort_keys=True))

    def test_drop_counters_surface_in_summary(self, monkeypatch):
        observe = ObservabilityConfig(spans=True, timeline=False)
        quiet = _chaos_run(observe=observe)
        assert 'spans.dropped' not in quiet['counters']
        assert drop_warnings(quiet['counters']) == []
        # Shrink every span ring so the same run saturates it.
        monkeypatch.setattr(tracing, 'SpanRecorder',
                            functools.partial(SpanRecorder, max_spans=4))
        saturated = _chaos_run(observe=observe)
        dropped = saturated['counters']['spans.dropped']
        assert dropped > 0
        assert len(drop_warnings(saturated['counters'])) == 1
        # Dropping spans loses no other counter.
        del saturated['counters']['spans.dropped']
        assert saturated['counters'] == quiet['counters']


class TestResidencyReconstruction:
    """Acceptance: a crashed VM's full timeline (place -> crash ->
    orphan -> re-place) reconstructed from the JSONL file alone."""

    def test_crashed_vm_timeline_from_jsonl_alone(self, tmp_path):
        path = tmp_path / 'events.jsonl'
        result = _chaos_run(observe=ObservabilityConfig(
            spans=False, events_out=str(path)))
        assert result['event_counts'].get(EVENT_HOST_CRASH, 0) > 0
        events = read_jsonl(str(path))

        recovered_vms = [e['vm'] for e in events
                         if e['kind'] == EVENT_RECOVERED]
        assert recovered_vms, 'chaos run recovered no VM'
        vm = recovered_vms[0]
        steps = [s['step'] for s in residency_timeline(events, vm)]
        assert steps[0] == 'place'
        assert 'orphaned' in steps
        assert 'recovered' in steps
        assert steps.index('orphaned') < steps.index('recovered')
        # Every step names a host except the host-less markers.
        for step in residency_timeline(events, vm):
            if step['step'] in ('place', 'orphaned', 'recovered',
                                'migrate_out', 'migrate_in', 'rollback'):
                assert step['host'] is not None

    def test_every_vm_is_accounted_for(self):
        result = _chaos_run()
        submitted = {e['vm'] for e in result['events']
                     if e['kind'] in (EVENT_PLACE, 'vm.reject')}
        assert submitted == set(vm_names(result['events']))

    def test_orphan_recovery_shares_flow_with_events(self):
        result = _chaos_run()
        orphaned = [e for e in result['events']
                    if e['kind'] == EVENT_ORPHANED
                    and e.get('flow') is not None]
        recovered = [e for e in result['events']
                     if e['kind'] == EVENT_RECOVERED
                     and e.get('flow') is not None]
        assert orphaned
        # Every flow-carrying recovery closes a flow an orphan opened.
        opened = {e['flow'] for e in orphaned}
        for event in recovered:
            assert event['flow'] in opened


class TestClusterTraceExport:
    def test_chaos_trace_validates_with_flows(self, tmp_path):
        path = tmp_path / 'trace.json'
        _chaos_run(observe=ObservabilityConfig(
            trace_out=str(path), timeline=False))
        events = load_chrome_trace(str(path))
        assert validate_chrome_trace(events) == []
        # Per-host process groups.
        names = {e['args']['name'] for e in events
                 if e['ph'] == 'M' and e['name'] == 'process_name'
                 and e['pid'] >= PID_CLUSTER_BASE}
        assert {'host:host0', 'host:host1'} <= names
        # At least one migration stitched source -> target.
        starts = [e for e in events if e['ph'] == 's']
        ends = [e for e in events if e['ph'] == 'f']
        assert starts and ends
        assert {e['id'] for e in ends} <= {e['id'] for e in starts}
        # Flow ends bind to the enclosing slice's end.
        assert all(e['bp'] == 'e' for e in ends)

    def test_metrics_exposition_export(self, tmp_path):
        path = tmp_path / 'metrics.prom'
        _chaos_run(observe=ObservabilityConfig(
            spans=False, metrics_out=str(path)))
        text = path.read_text()
        assert '# TYPE repro_placements_total counter' in text
        assert 'repro_placements_total{host="host0"}' in text

    def test_spans_do_not_perturb_the_summary(self):
        base = _chaos_run()
        observed = _chaos_run(observe=ObservabilityConfig(timeline=False))
        assert (json.dumps(base, sort_keys=True)
                == json.dumps(observed, sort_keys=True))
