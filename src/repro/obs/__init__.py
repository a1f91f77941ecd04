"""Observability: spans, latency histograms, and trace exporters.

The instrumentation plane of the reproduction (docs/observability.md):

* :mod:`repro.obs.spans` - begin/end span recording with nesting and a
  bounded ring, owned by every :class:`~repro.simkernel.tracing.Tracer`;
* :mod:`repro.obs.phases` - the SA-protocol phase taxonomy the probes
  in ``repro.core`` and ``repro.hypervisor`` emit;
* :mod:`repro.obs.histograms` - log-bucketed latency histograms and
  the run's one counter/gauge/histogram registry (plus prefix-scoped,
  labelled per-host views);
* :mod:`repro.obs.exporters` - Chrome trace-event JSON (Perfetto /
  ``chrome://tracing``) with per-host cluster process groups and flow
  stitching, plus schema validation;
* :mod:`repro.obs.eventlog` - the structured cluster health event log
  (bounded, deterministic JSONL) and residency-timeline reconstruction;
* :mod:`repro.obs.exposition` - Prometheus-style text exposition of a
  registry snapshot;
* :mod:`repro.obs.report` - the per-phase ``sa-latency`` summary and
  ring-drop warnings.
"""

from .eventlog import (
    CLUSTER_EVENT_KINDS,
    EventLog,
    format_residency,
    read_jsonl,
    residency_timeline,
    vm_names,
)
from .exporters import (
    CLUSTER_TRACK_PREFIX,
    PID_CLUSTER_BASE,
    chrome_trace_events,
    load_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from .exposition import render_exposition, write_exposition
from .histograms import (
    LogHistogram,
    MetricsRegistry,
    ScopedRegistry,
)
from .phases import (
    ALL_PHASES,
    PHASE_ACK,
    PHASE_DESCHEDULE,
    PHASE_DP_DEFER,
    PHASE_MIGRATE,
    PHASE_OFFER,
    PHASE_PREEMPT_FIRE,
    PHASE_UPCALL,
    PHASE_VIRQ,
    SA_PHASES,
)
from .report import (
    drop_warnings,
    explain_empty,
    phase_summaries,
    sa_latency_rows,
)
from .spans import Span, SpanRecorder

__all__ = [
    'ALL_PHASES',
    'CLUSTER_EVENT_KINDS',
    'CLUSTER_TRACK_PREFIX',
    'EventLog',
    'LogHistogram',
    'MetricsRegistry',
    'PHASE_ACK',
    'PHASE_DESCHEDULE',
    'PHASE_DP_DEFER',
    'PHASE_MIGRATE',
    'PHASE_OFFER',
    'PHASE_PREEMPT_FIRE',
    'PHASE_UPCALL',
    'PHASE_VIRQ',
    'PID_CLUSTER_BASE',
    'SA_PHASES',
    'ScopedRegistry',
    'Span',
    'SpanRecorder',
    'chrome_trace_events',
    'drop_warnings',
    'explain_empty',
    'format_residency',
    'load_chrome_trace',
    'phase_summaries',
    'read_jsonl',
    'render_exposition',
    'residency_timeline',
    'sa_latency_rows',
    'validate_chrome_trace',
    'vm_names',
    'write_chrome_trace',
    'write_exposition',
]
