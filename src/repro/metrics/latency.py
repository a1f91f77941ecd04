"""Latency recording and percentile summaries."""

import math


def _interpolate(ordered, p):
    """Linear-interpolated percentile ``p`` of the non-empty sorted
    list ``ordered``."""
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (p / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = min(low + 1, len(ordered) - 1)
    if ordered[low] == ordered[high]:
        return float(ordered[low])
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


class LatencyRecorder:
    """Collects latency samples (ns) and answers percentile queries.

    :meth:`summary` sorts the samples once and reads every percentile
    from that order; :meth:`percentile` sorts on each call. Open-loop
    serving runs push sample counts into the millions, so a run asks
    each recorder for one summary.
    """

    def __init__(self, name='latency'):
        self.name = name
        self.samples = []

    def record(self, value_ns):
        if value_ns < 0:
            raise ValueError('negative latency %r' % value_ns)
        self.samples.append(value_ns)

    def extend(self, values_ns):
        """Bulk-append samples (merging per-replica recorders)."""
        self.samples.extend(values_ns)

    def reset(self):
        """Drop every sample (steady-state measurement restarts)."""
        self.samples.clear()

    def __len__(self):
        return len(self.samples)

    @property
    def count(self):
        return len(self.samples)

    def mean(self):
        if not self.samples:
            return 0.0
        return sum(self.samples) / len(self.samples)

    def percentile(self, p):
        """Linear-interpolated percentile, p in [0, 100]."""
        if not self.samples:
            return 0.0
        if not 0 <= p <= 100:
            raise ValueError('percentile must be in [0, 100]')
        return _interpolate(sorted(self.samples), p)

    def p50(self):
        return self.percentile(50)

    def p99(self):
        return self.percentile(99)

    def max(self):
        return float(max(self.samples)) if self.samples else 0.0

    def summary(self):
        """Dict of the usual aggregates (ns)."""
        ordered = sorted(self.samples)
        return {
            'count': len(ordered),
            'mean': self.mean(),
            'p50': _interpolate(ordered, 50) if ordered else 0.0,
            'p99': _interpolate(ordered, 99) if ordered else 0.0,
            'max': float(ordered[-1]) if ordered else 0.0,
        }
