"""Log-bucketed latency histograms and the typed metrics registry.

The histogram is HdrHistogram-shaped: values land in power-of-two major
buckets, each split into :data:`SUB_BUCKETS` linear sub-buckets, so the
relative quantile error is bounded (~1/SUB_BUCKETS) at every magnitude
while storage stays O(log(max) * SUB_BUCKETS) regardless of sample
count. That is what lets a multi-second run keep full-fidelity
percentiles of 20 µs scheduler-activation phases without retaining the
samples themselves.

The :class:`MetricsRegistry` is the run's one metric store: counters
and gauges as plain values in two dicts, histograms as
:class:`LogHistogram` objects. The tracer's counter dict *is* the
registry's (:attr:`repro.simkernel.tracing.Tracer.counters`), and
:class:`~repro.metrics.collector.RunMetrics` snapshots the registry at
the end of a run.

This module is dependency-free on purpose: :mod:`repro.simkernel.tracing`
imports it, so it must not import anything from the simkernel.
"""

from collections import Counter

#: Linear sub-buckets per power-of-two octave. 16 gives <= ~6% relative
#: quantile error - tight enough to resolve the paper's 20-26 us band.
SUB_BUCKETS = 16

# ----------------------------------------------------------------------
# The metric-name taxonomy
# ----------------------------------------------------------------------
#
# Every counter/gauge/histogram name emitted anywhere in ``src/repro``
# is declared here (or is a span phase from :mod:`repro.obs.phases`, or
# an event kind from :mod:`repro.obs.eventlog` — span durations and
# health markers register under those vocabularies). The static
# taxonomy-drift lint (``tools/replint``) cross-checks emission sites
# against these sets, so a metric can no longer be born by typo: an
# undeclared name fails the build instead of silently falling out of
# every registry-driven report.

#: Full metric names, grouped by emitting subsystem.
DECLARED_METRICS = frozenset((
    # hypervisor substrate
    'hv.preemptions', 'hv.rebalances', 'hv.repicks', 'hv.steals',
    'hv.wakes',
    'virq.delivered', 'virq.dropped', 'virq.pended',
    'ple.exits',
    'relaxedco.costops', 'relaxedco.switches',
    'dp.budget_exhausted', 'dp.deferrals',
    'balancesched.vetoes',
    # guest kernel
    'guest.block_waits', 'guest.nohz_kicks', 'guest.pulls',
    'guest.spin_waits', 'guest.stopper_migrations', 'guest.task_exits',
    'guest.wakeups',
    # IRS core (sender / receiver / context switcher / migrator)
    'irs.context_switches', 'irs.migrations', 'irs.migrator_aborts',
    'irs.migrator_failures', 'irs.migrator_fallbacks',
    'irs.migrator_probe_errors', 'irs.migrator_recoveries',
    'irs.migrator_retries', 'irs.migrator_stranded', 'irs.pull_kicks',
    'irs.pulls', 'irs.sa_dup_acks', 'irs.sa_health_fallbacks',
    'irs.sa_health_rearms', 'irs.sa_retries', 'irs.sa_sent',
    'irs.sa_suppressed', 'irs.sa_timeouts',
    # fault plane / sanitizer
    'faults.injected',
    'sanitizer.checks', 'sanitizer.violations',
    # cluster control plane
    'cluster.admitted', 'cluster.drain_migrations',
    'cluster.duplicate_submits', 'cluster.host_crashes',
    'cluster.host_degrades', 'cluster.host_recoveries',
    'cluster.migration_aborts', 'cluster.migration_breaker_refusals',
    'cluster.migration_breaker_trips', 'cluster.migration_orphans',
    'cluster.migration_retries', 'cluster.migration_rollbacks',
    'cluster.migrations', 'cluster.migrations_done', 'cluster.parked',
    'cluster.quarantine_rearms', 'cluster.quarantines',
    'cluster.rebalance_rearms', 'cluster.rebalance_trips',
    'cluster.recoveries', 'cluster.recovery_retries',
    'cluster.rejected', 'cluster.retired', 'cluster.unparked',
    # traffic / serving plane
    'traffic.reroute', 'traffic.scale_downs', 'traffic.scale_rejected',
    'traffic.scale_ups', 'traffic.shed', 'traffic.unroutable',
    # observability self-accounting
    'spans.dropped',
    # wall-clock pipeline profiling (experiments layer; not part of
    # the deterministic in-simulation vocabulary)
    'executor.dispatched', 'executor.run_wall_ns', 'executor.runs',
    'executor.timeout_retries', 'executor.wall_timeouts',
    'runcache.hit', 'runcache.miss', 'runcache.store',
))

#: Short per-scope family names used through :class:`ScopedRegistry`
#: views (``registry.scoped('host.host0.')`` etc.); the exposition
#: folds them into labelled families, so the *family* is the declared
#: unit, not each prefixed instance.
DECLARED_METRIC_FAMILIES = frozenset((
    # host scope ('host.<name>.')
    'adoptions', 'crashes', 'degrades', 'evictions', 'monitor_windows',
    'placements', 'recoveries', 'resident_vms', 'run_pressure',
    'steal_pressure',
    # SLO scope ('traffic.slo.')
    'attainment_ppm', 'burn_ppm', 'good', 'shed', 'slow',
))


class LogHistogram:
    """Fixed-memory histogram of non-negative integer durations (ns)."""

    __slots__ = ('name', 'count', 'sum', 'min', 'max', '_buckets')
    kind = 'histogram'

    def __init__(self, name='histogram'):
        self.name = name
        self.count = 0
        self.sum = 0
        self.min = None
        self.max = None
        self._buckets = {}      # bucket index -> count

    @staticmethod
    def _bucket_index(value):
        """Index of the (octave, sub-bucket) cell holding ``value``."""
        if value < SUB_BUCKETS:
            return value
        octave = value.bit_length() - 1
        # Width of one sub-bucket in this octave.
        sub = (value - (1 << octave)) * SUB_BUCKETS >> octave
        return octave * SUB_BUCKETS + sub

    @staticmethod
    def _bucket_bounds(index):
        """(low, high) value range of bucket ``index`` (high exclusive)."""
        if index < SUB_BUCKETS:
            return index, index + 1
        octave, sub = divmod(index, SUB_BUCKETS)
        base = 1 << octave
        width = base // SUB_BUCKETS or 1
        low = base + sub * width
        return low, low + width

    def record(self, value_ns):
        """Add one sample. Negative durations are a caller bug."""
        if value_ns < 0:
            raise ValueError('negative duration %r' % value_ns)
        value_ns = int(value_ns)
        self.count += 1
        self.sum += value_ns
        if self.min is None or value_ns < self.min:
            self.min = value_ns
        if self.max is None or value_ns > self.max:
            self.max = value_ns
        # _bucket_index, inlined: record() is on every request's path.
        if value_ns < SUB_BUCKETS:
            index = value_ns
        else:
            octave = value_ns.bit_length() - 1
            index = (octave * SUB_BUCKETS
                     + ((value_ns - (1 << octave)) * SUB_BUCKETS >> octave))
        buckets = self._buckets
        buckets[index] = buckets.get(index, 0) + 1

    def __len__(self):
        return self.count

    def mean(self):
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p):
        """Approximate percentile via linear interpolation inside the
        bucket holding the rank; exact at the recorded min and max."""
        if not 0 <= p <= 100:
            raise ValueError('percentile must be in [0, 100]')
        if self.count == 0:
            return 0.0
        rank = p / 100.0 * self.count
        seen = 0
        for index in sorted(self._buckets):
            n = self._buckets[index]
            if seen + n >= rank:
                low, high = self._bucket_bounds(index)
                frac = (rank - seen) / n
                value = low + (high - low) * frac
                # The true extremes are tracked exactly; never report
                # beyond them because of bucket granularity.
                return float(min(max(value, self.min), self.max))
            seen += n
        return float(self.max)

    def p50(self):
        return self.percentile(50)

    def p90(self):
        return self.percentile(90)

    def p99(self):
        return self.percentile(99)

    def summary(self):
        """Dict of the aggregates every report prints (ns)."""
        return {
            'count': self.count,
            'mean': self.mean(),
            'p50': self.p50(),
            'p90': self.p90(),
            'p99': self.p99(),
            'min': self.min if self.min is not None else 0,
            'max': self.max if self.max is not None else 0,
        }

    def copy(self, name=None):
        clone = LogHistogram(name or self.name)
        clone.count = self.count
        clone.sum = self.sum
        clone.min = self.min
        clone.max = self.max
        clone._buckets = dict(self._buckets)
        return clone

    def __repr__(self):
        return '<LogHistogram %s n=%d>' % (self.name, self.count)


class ScopedRegistry:
    """Prefix-scoped, label-carrying view of a :class:`MetricsRegistry`.

    Every metric written through the view lives in the parent registry
    under ``prefix + name`` and remembers ``name`` as its *family* plus
    the view's labels — which is what lets the Prometheus exposition
    (:mod:`repro.obs.exposition`) fold ``host.host0.placements`` and
    ``host.host1.placements`` into one labelled family. The scope is
    also the isolation boundary the cluster layer relies on: two hosts
    with distinct prefixes can never increment each other's counters.
    """

    __slots__ = ('registry', 'prefix', 'labels')

    def __init__(self, registry, prefix, labels=None):
        self.registry = registry
        self.prefix = prefix
        self.labels = dict(labels or {})

    def _scoped(self, name):
        full = self.prefix + name
        self.registry._meta.setdefault(full, (name, self.labels))
        return full

    def count(self, name, n=1):
        self.registry.count(self._scoped(name), n)

    def set_gauge(self, name, value):
        self.registry.set_gauge(self._scoped(name), value)

    def __repr__(self):
        return '<ScopedRegistry %s%s>' % (self.prefix, self.labels or '')


class _Counts(Counter):
    """A registry's counter dict. Only a name's first touch pays for
    the kind check (``__missing__``); every later ``+=`` is a plain
    :class:`~collections.Counter` write, which is what keeps
    ``trace.count`` on the hot path as cheap as a raw ``Counter``."""

    def __init__(self, registry):
        super().__init__()
        self.registry = registry

    def __missing__(self, name):
        self.registry._claim(name, 'counter')
        return 0

    def __reduce__(self):
        # Keep the registry link across pickling (run-cache entries and
        # worker results carry registry snapshots).
        return type(self), (self.registry,), None, None, iter(self.items())


class MetricsRegistry:
    """The run's one metric store: counters, gauges and histograms.

    Counters and gauges are plain values in two dicts
    (:attr:`counters` is a :class:`~collections.Counter`, so a missing
    name reads as 0); histograms are :class:`LogHistogram` objects
    created on first use. A name is permanently bound to its first
    kind: using it as another kind raises ``TypeError``, and counters
    only go up.
    """

    def __init__(self):
        self.counters = _Counts(self)
        self.gauges = {}
        self.histograms = {}
        self._meta = {}              # name -> (family, labels) for scopes

    def by_kind(self):
        """``((kind, {name: value}), ...)`` for the three stores."""
        return (('counter', self.counters), ('gauge', self.gauges),
                ('histogram', self.histograms))

    def _claim(self, name, kind):
        for other, store in self.by_kind():
            if other != kind and name in store:
                raise TypeError('metric %r is a %s, not a %s'
                                % (name, other, kind))

    def count(self, name, n=1):
        """Add ``n`` to counter ``name``."""
        if n < 0:
            raise ValueError('counters only go up (got %r)' % n)
        self.counters[name] += n

    def set_gauge(self, name, value):
        """Set gauge ``name`` (last write wins)."""
        if name not in self.gauges:
            self._claim(name, 'gauge')
        self.gauges[name] = value

    def histogram(self, name):
        """The :class:`LogHistogram` named ``name`` (created on first
        use)."""
        metric = self.histograms.get(name)
        if metric is None:
            self._claim(name, 'histogram')
            metric = self.histograms[name] = LogHistogram(name)
        return metric

    def scoped(self, prefix, **labels):
        """A :class:`ScopedRegistry` view: metrics written through it
        live under ``prefix + name`` and carry ``labels`` (rendered by
        the Prometheus exposition). Views with distinct prefixes are
        isolated from each other by construction."""
        return ScopedRegistry(self, prefix, labels)

    def metric_meta(self, name):
        """``(family, labels)`` of a scoped metric, or None."""
        return self._meta.get(name)

    def __contains__(self, name):
        return any(name in store for __, store in self.by_kind())

    def __len__(self):
        return sum(len(store) for __, store in self.by_kind())

    def counter_values(self, prefixes=None):
        """``{name: value}`` for counters (optionally prefix-filtered),
        sorted by name."""
        return {name: self.counters[name]
                for name in sorted(self.counters)
                if prefixes is None or name.startswith(tuple(prefixes))}

    def histogram_summaries(self, prefixes=None):
        """``{name: summary-dict}`` for histograms, sorted by name."""
        return {name: self.histograms[name].summary()
                for name in sorted(self.histograms)
                if prefixes is None or name.startswith(tuple(prefixes))}

    def snapshot(self):
        """Deep-copied registry frozen at this instant."""
        clone = MetricsRegistry()
        clone.counters.update(self.counters)
        clone.gauges.update(self.gauges)
        clone.histograms = {name: metric.copy()
                            for name, metric in self.histograms.items()}
        clone._meta = {name: (family, dict(labels))
                       for name, (family, labels) in self._meta.items()}
        return clone

    def __repr__(self):
        return '<MetricsRegistry %d metrics>' % len(self)
