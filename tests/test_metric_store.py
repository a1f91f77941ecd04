"""The run's one metric store, seen from its outputs.

Every counter a run writes reaches the Prometheus exposition (the
``golden/`` files hold the lines an exposition carried before the
tracer's counters joined the registry; each must still be there,
unchanged), and a saturated span ring surfaces as the ``spans.dropped``
counter and as a report warning line.
"""

import functools
from pathlib import Path

import pytest

from repro.cluster import run_consolidation
from repro.experiments import InterferenceSpec, parallel_spec, run_specs
from repro.experiments.cli import main
from repro.experiments.executor import execute_spec
from repro.experiments.figures import cluster_health, sa_latency
from repro.experiments.harness import ObservabilityConfig
from repro.obs.histograms import MetricsRegistry
from repro.obs.report import drop_warnings
from repro.obs.spans import SpanRecorder
from repro.simkernel import tracing

GOLDEN = Path(__file__).parent / 'golden'


def _exported_lines(path):
    return path.read_text().splitlines()


def _assert_keeps_golden(lines, golden_name):
    golden = (GOLDEN / golden_name).read_text().splitlines()
    missing = [line for line in golden if line not in set(lines)]
    assert not missing, missing


class TestExpositionCarriesEveryCounter:
    def test_cluster_chaos_run(self, tmp_path):
        path = tmp_path / 'metrics.prom'
        result = run_consolidation(
            strategy='irs', placement='first_fit', seed=0,
            faults='cluster-chaos',
            observe=ObservabilityConfig(spans=False, metrics_out=str(path)))
        lines = _exported_lines(path)
        crashes = result['counters']['cluster.host_crashes']
        injected = result['counters']['faults.injected']
        assert crashes > 0 and injected > 0
        assert 'repro_cluster_host_crashes_total %d' % crashes in lines
        assert 'repro_faults_injected_total %d' % injected in lines
        for name, value in result['counters'].items():
            assert 'repro_%s_total %d' % (name.replace('.', '_'),
                                          value) in lines
        _assert_keeps_golden(lines, 'cluster_chaos_seed0.prom')

    def test_single_machine_irs_run(self, tmp_path):
        path = tmp_path / 'metrics.prom'
        spec = parallel_spec('streamcluster', 'irs',
                             InterferenceSpec('hogs', 2), seed=0, scale=0.3)
        outcome = execute_spec(spec, observe=ObservabilityConfig(
            timeline=False, metrics_out=str(path)))
        lines = _exported_lines(path)
        counters = outcome.metrics.counters
        assert counters['irs.sa_sent'] > 0
        assert counters['hv.preemptions'] > 0
        assert 'repro_irs_sa_sent_total %d' % counters['irs.sa_sent'] in lines
        assert ('repro_hv_preemptions_total %d' % counters['hv.preemptions']
                in lines)
        _assert_keeps_golden(lines, 'streamcluster_irs_hogs2_seed0.prom')


class TestDropWarnings:
    def test_nothing_dropped_means_no_warning(self):
        assert drop_warnings({}) == []
        assert drop_warnings({'spans.dropped': 0, 'hv.wakes': 5}) == []

    def test_one_line_per_saturated_ring(self):
        [line] = drop_warnings({'spans.dropped': 7, 'hv.wakes': 5})
        assert line.startswith(
            'warning: span ring overflowed — 7 oldest entries dropped;')

    def test_reads_a_registry_counter_dict(self):
        registry = MetricsRegistry()
        registry.count('spans.dropped', 3)
        assert drop_warnings(registry.counters) == drop_warnings(
            {'spans.dropped': 3})


@pytest.fixture
def tiny_span_ring(monkeypatch):
    """Every simulator built while active gets an 8-span ring."""
    monkeypatch.setattr(tracing, 'SpanRecorder',
                        functools.partial(SpanRecorder, max_spans=8))


def _recording_runner(outcomes):
    def run(specs):
        batch = run_specs(specs)
        outcomes.extend(batch)
        return batch
    return run


class TestSaturatedSpanRing:
    def test_single_machine_run_warns(self, tiny_span_ring):
        outcomes = []
        result = sa_latency(quick=True, run=_recording_runner(outcomes))
        dropped = outcomes[0].metrics.counters['spans.dropped']
        assert dropped > 0
        assert result.warnings == tuple(drop_warnings(
            {'spans.dropped': dropped}))

    def test_cluster_run_warns(self, tiny_span_ring):
        outcomes = []
        result = cluster_health(quick=True,
                                run=_recording_runner(outcomes))
        dropped = outcomes[0].cluster['counters']['spans.dropped']
        assert dropped > 0
        [warning] = drop_warnings({'spans.dropped': dropped})
        assert result.warnings == (warning,)

    def test_cli_prints_the_warning_after_the_table(self, tiny_span_ring,
                                                    capsys):
        assert main(['cluster-health', '--no-cache']) == 0
        lines = capsys.readouterr().out.splitlines()
        [warning] = [line for line in lines if line.startswith('warning:')]
        assert warning.startswith('warning: span ring overflowed — ')
        assert lines[lines.index(warning) + 1].startswith(
            '(cluster_health: ')
