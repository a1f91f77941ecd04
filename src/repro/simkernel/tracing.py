"""The simulator's counter store and span probes.

Every :class:`~repro.simkernel.simulation.Simulator` owns one
:class:`Tracer`, which carries the run's observability state:

* :attr:`Tracer.metrics` - the :class:`~repro.obs.histograms.MetricsRegistry`,
  the run's one store of counters, gauges and histograms;
* :attr:`Tracer.counters` - the registry's counter dict itself (not a
  copy), and :meth:`Tracer.count` - the registry's ``count``, so the
  hot-path ``trace.count(name)`` writes straight into the registry;
* :attr:`Tracer.spans` - a :class:`~repro.obs.spans.SpanRecorder` for
  begin/end phase spans (SA protocol probes). Disabled by default;
  every probe is a single-attribute-test no-op until enabled. Span
  durations feed the histogram named after their phase.
"""

from ..obs.histograms import MetricsRegistry
from ..obs.spans import SpanRecorder


class Tracer:
    """A run's metric registry, its counter dict, and its spans."""

    def __init__(self):
        self.metrics = MetricsRegistry()
        self.counters = self.metrics.counters
        # The bound method itself: no wrapper call on the hot path.
        self.count = self.metrics.count
        self.spans = SpanRecorder(registry=self.metrics)
