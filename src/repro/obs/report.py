"""The ``sa-latency`` report: per-phase latency summaries as rows.

Pure data-shaping: given a :class:`~repro.obs.histograms.MetricsRegistry`
(live or a :class:`~repro.metrics.collector.RunMetrics` snapshot),
produce the headers/rows the CLI table and the benchmarks consume.
Kept free of experiment-layer imports so :mod:`repro.obs` never needs
the harness.
"""

from .histograms import MetricsRegistry
from .phases import ALL_PHASES, PHASE_DESCRIPTIONS

SA_LATENCY_HEADERS = ('phase', 'samples', 'p50 (us)', 'p90 (us)',
                      'p99 (us)', 'max (us)', 'meaning')


def _us(value_ns):
    return value_ns / 1000.0


def phase_summaries(registry, phases=ALL_PHASES):
    """``{phase: summary-dict}`` for every phase with recorded samples,
    in taxonomy order."""
    out = {}
    for phase in phases:
        metric = registry.histograms.get(phase)
        if metric is None or metric.count == 0:
            continue
        out[phase] = metric.summary()
    return out


def sa_latency_rows(registry, phases=ALL_PHASES):
    """(headers, rows, notes) of the per-phase latency table.

    ``notes`` maps each phase to its summary dict with additional
    ``*_us`` conveniences, ready for test assertions.
    """
    rows = []
    notes = {}
    for phase, summary in phase_summaries(registry, phases).items():
        rows.append([
            phase,
            '%d' % summary['count'],
            '%.1f' % _us(summary['p50']),
            '%.1f' % _us(summary['p90']),
            '%.1f' % _us(summary['p99']),
            '%.1f' % _us(summary['max']),
            PHASE_DESCRIPTIONS.get(phase, ''),
        ])
        notes[phase] = dict(
            summary,
            p50_us=_us(summary['p50']),
            p90_us=_us(summary['p90']),
            p99_us=_us(summary['p99']),
            min_us=_us(summary['min']),
            max_us=_us(summary['max']),
        )
    return list(SA_LATENCY_HEADERS), rows, notes


def explain_empty(strategy, spans_enabled):
    """Why an SA-latency table has no rows - surfaced instead of a
    table of zeros (CLI polish, not an error)."""
    if not spans_enabled:
        return ('span recording was disabled for this run; enable '
                'observability (e.g. --trace-out or observe=True) to '
                'collect SA phase latencies')
    if strategy not in ('irs', 'delay_preempt'):
        return ("strategy %r never issues scheduler activations, so "
                "every SA phase histogram is empty; rerun with the "
                "'irs' strategy to profile the SA protocol" % strategy)
    return ('no scheduler activations fired during this run (no '
            'involuntary preemptions hit an SA-capable vCPU); lengthen '
            'the run or add interference')


#: Ring-overflow counters every report should surface: a saturated
#: ring means the exported window (and any span-derived view) is
#: missing the oldest data, which must not fail silently.
DROP_COUNTERS = (
    ('spans.dropped', 'span ring overflowed'),
)


def drop_warnings(counts):
    """One warning line per saturated observability ring (empty when
    nothing was dropped), from a ``{counter name: count}`` mapping
    (``RunMetrics.counters`` or a cluster summary's ``counters``).
    Reports print these verbatim."""
    return ['warning: %s — %d oldest entries dropped; histograms '
            'and counters are complete, but exported windows are '
            'truncated (raise the ring capacity to keep them)'
            % (what, counts[name])
            for name, what in DROP_COUNTERS if counts.get(name, 0) > 0]


__all__ = [
    'DROP_COUNTERS',
    'MetricsRegistry',
    'SA_LATENCY_HEADERS',
    'drop_warnings',
    'explain_empty',
    'phase_summaries',
    'sa_latency_rows',
]
