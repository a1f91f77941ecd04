"""Observability overhead budget (pytest -m obs).

Two guarantees the instrumentation must keep:

* **Determinism** — arming spans and timeline sampling must not change
  what the simulation computes (same makespan, same SA protocol
  traffic). Observation that perturbs the experiment is worthless.
* **Disabled cost < 2%** — with observability off (the default), every
  probe is one attribute test. The budget check multiplies the number
  of probe-site executions a quick fig5 cell performs by the measured
  per-call cost of a disabled probe and requires the total to stay
  under 2% of the run's wall time, i.e. of its event throughput.
"""

import json
import time

import pytest

from repro.cluster.scenario import run_consolidation
from repro.experiments.harness import ObservabilityConfig, run_parallel
from repro.experiments.topology import InterferenceSpec
from repro.obs.spans import SpanRecorder

pytestmark = pytest.mark.obs

RUN_KWARGS = dict(strategy='irs', interference=InterferenceSpec('hogs', 1),
                  seed=0, scale=0.5)

#: Probe call sites executed per SA round (offer, vIRQ begin/end,
#: upcall, deschedule, ack begin/end, offer close, migrate begin/end)
#: plus slack for retries and DP/preempt-fire probes.
PROBES_PER_SA_ROUND = 16


def test_observability_does_not_perturb_the_run():
    base = run_parallel('streamcluster', **RUN_KWARGS)
    observed = run_parallel('streamcluster', observe=True, **RUN_KWARGS)
    assert base.makespan_ns == observed.makespan_ns
    for counter in ('irs.sa_sent', 'irs.sa_acked', 'hv.preemptions',
                    'hv.wakes'):
        assert (base.metrics.counters.get(counter, 0)
                == observed.metrics.counters.get(counter, 0)), counter
    # And the observed run actually observed something.
    assert observed.metrics.registry.histograms['sa.offer'].count > 0
    assert observed.timeline is not None
    assert observed.timeline.samples


def test_disabled_probe_overhead_under_two_percent():
    started = time.perf_counter()
    result = run_parallel('streamcluster', **RUN_KWARGS)
    wall = time.perf_counter() - started

    # Per-call cost of a probe with observability off: the guard the
    # instrumented code runs (one attribute test) plus the no-op entry.
    spans = SpanRecorder(enabled=False)
    calls = 1_000_000
    t0 = time.perf_counter()
    for __ in range(calls):
        if spans.enabled:
            spans.begin(0, 'p', 't')
    per_call = (time.perf_counter() - t0) / calls

    counters = result.metrics.counters
    sa_rounds = (counters.get('irs.sa_sent', 0)
                 + counters.get('irs.sa_retries', 0)
                 + counters.get('dp.deferrals', 0)
                 + counters.get('hv.preemptions', 0))
    probe_calls = PROBES_PER_SA_ROUND * sa_rounds
    assert probe_calls > 0, 'run exercised no probe sites'

    overhead = probe_calls * per_call
    fraction = overhead / wall
    assert fraction < 0.02, (
        'disabled probes cost %.3f%% of the run (%d probe executions, '
        '%.0f ns each, %.2fs wall)'
        % (fraction * 100.0, probe_calls, per_call * 1e9, wall))


# ----------------------------------------------------------------------
# Cluster probes: same two guarantees for the cluster control plane.
# ----------------------------------------------------------------------

CLUSTER_KWARGS = dict(strategy='irs', placement='first_fit', seed=0,
                      faults='cluster-chaos')

#: Probe call sites per control-plane event: the span/instant probe
#: itself, the event-log append, the scoped-metric update, and slack
#: for paired begin/end migration spans.
CLUSTER_PROBES_PER_EVENT = 4


def test_cluster_observability_does_not_perturb_the_run():
    base = run_consolidation(**CLUSTER_KWARGS)
    observed = run_consolidation(observe=ObservabilityConfig(),
                                 **CLUSTER_KWARGS)
    assert (json.dumps(base, sort_keys=True)
            == json.dumps(observed, sort_keys=True))


def test_cluster_disabled_probe_overhead_under_two_percent():
    started = time.perf_counter()
    result = run_consolidation(**CLUSTER_KWARGS)
    wall = time.perf_counter() - started

    spans = SpanRecorder(enabled=False)
    calls = 1_000_000
    t0 = time.perf_counter()
    for __ in range(calls):
        if spans.enabled:
            spans.begin(0, 'p', 't')
    per_call = (time.perf_counter() - t0) / calls

    # Every control-plane transition the chaos run produced is a
    # probe-site execution (the health event log records them all).
    probe_calls = CLUSTER_PROBES_PER_EVENT * len(result['events'])
    assert probe_calls > 0, 'chaos run exercised no cluster probe sites'

    overhead = probe_calls * per_call
    fraction = overhead / wall
    assert fraction < 0.02, (
        'disabled cluster probes cost %.3f%% of the run (%d probe '
        'executions, %.0f ns each, %.2fs wall)'
        % (fraction * 100.0, probe_calls, per_call * 1e9, wall))
