"""Measurement: latency percentiles, fairness/efficiency metrics,
and run-level collection."""

from .collector import RunMetrics, TaskMetrics, VmMetrics
from .fairness import (
    improvement_percent,
    utilization_vs_fair_share,
    weighted_speedup,
)
from .latency import LatencyRecorder
from .timeline import TimelineRecorder, TimelineSample

__all__ = [
    'improvement_percent',
    'LatencyRecorder',
    'RunMetrics',
    'TaskMetrics',
    'TimelineRecorder',
    'TimelineSample',
    'utilization_vs_fair_share',
    'VmMetrics',
    'weighted_speedup',
]
