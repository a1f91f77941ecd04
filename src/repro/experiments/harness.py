"""Experiment runners: one configuration in, measurements out.

These are the building blocks the per-figure drivers compose. Each run
builds a fresh simulator (fully deterministic in the seed), wires a
strategy, installs workloads, and executes to completion or to a fixed
duration.
"""

from ..core import IRSConfig
from ..metrics import RunMetrics, TimelineRecorder, utilization_vs_fair_share
from ..obs.exporters import write_chrome_trace
from ..obs.exposition import write_exposition
from ..simkernel.units import MS, SEC
from ..workloads import (
    ApacheBenchWorkload,
    ParallelWorkload,
    SpecJbbWorkload,
    get_profile,
)
from ..guestos.migration import MigrationStopper
from ..workloads.program import cpu_hog
from .strategies import DELAY_PREEMPT, IRS, apply_strategy
from .topology import NO_INTERFERENCE, InterferenceSpec, build_scenario

DEFAULT_TIMEOUT_NS = 240 * SEC
_RUN_CHUNK_NS = 50 * MS


class ObservabilityConfig:
    """What a run should capture and where to export it.

    ``trace_out`` names a Chrome trace-event JSON file (Perfetto /
    ``chrome://tracing``); when a figure driver makes several runs the
    file is rewritten per run, so the last run wins. ``spans`` enables
    the SA-protocol span probes; ``timeline`` attaches a
    :class:`~repro.metrics.TimelineRecorder` sampling every
    ``timeline_period_ns``.

    ``metrics_out`` names a Prometheus-style text exposition snapshot
    of the run's metric registry; cluster runs also honour
    ``events_out`` (the structured health event log as JSONL). Both
    are rewritten per run like ``trace_out``.
    """

    def __init__(self, trace_out=None, spans=True, timeline=True,
                 timeline_period_ns=1 * MS, events_out=None,
                 metrics_out=None):
        self.trace_out = trace_out
        self.spans = spans
        self.timeline = timeline
        self.timeline_period_ns = timeline_period_ns
        self.events_out = events_out
        self.metrics_out = metrics_out

    def export(self, sim, machine=None, timeline=None, events=None):
        """End one run's capture: stop ``timeline`` and write whichever
        of the trace, the JSONL ``events`` log and the exposition this
        config names."""
        if timeline is not None:
            timeline.stop()
        if self.trace_out:
            write_chrome_trace(self.trace_out, machine=machine,
                               timeline=timeline, spans=sim.trace.spans,
                               now_ns=sim.now)
        if self.events_out and events is not None:
            events.write_jsonl(self.events_out)
        if self.metrics_out:
            write_exposition(self.metrics_out, sim.trace.metrics)


def _wire(scenario, strategy, irs_config, fault_plan, observe):
    """Wire a freshly built scenario for one run, in a fixed order:
    observability first (the timeline's ``start()`` schedules an
    event), then ``fault_plan`` (None = reliable machine), then the
    strategy. Returns ``(config, timeline)``; ``config`` is None when
    ``observe`` is None, and the defaults when it is True.

    When a campaign is active and the caller did not pin an IRS config,
    the graceful-degradation defenses are switched on, since measuring
    an unreliable channel with the defenses off is an ablation, not the
    default."""
    config = ObservabilityConfig() if observe is True else observe
    timeline = None
    if config is not None:
        if config.spans:
            scenario.sim.trace.spans.enabled = True
        if config.timeline:
            timeline = TimelineRecorder(
                scenario.sim, scenario.machine,
                period_ns=config.timeline_period_ns).start()
    uses_irs = strategy in (IRS, DELAY_PREEMPT)
    if fault_plan is not None:
        fault_plan.build(scenario.sim).attach(scenario.machine)
        if irs_config is None and uses_irs:
            irs_config = IRSConfig(degradation_enabled=True)
    apply_strategy(scenario.machine, strategy,
                   irs_kernels=[scenario.fg_kernel] if uses_irs else (),
                   irs_config=irs_config)
    return config, timeline


class ParallelRunResult:
    """Outcome of one parallel-workload run."""

    def __init__(self, app, strategy, makespan_ns, utilization, bg_rates,
                 metrics, workload, scenario, timeline=None):
        self.app = app
        self.strategy = strategy
        self.makespan_ns = makespan_ns
        self.utilization = utilization
        self.bg_rates = bg_rates
        self.metrics = metrics
        self.workload = workload
        self.scenario = scenario
        self.timeline = timeline

    @property
    def completed(self):
        return self.makespan_ns is not None

    def __repr__(self):
        span = ('%.1fms' % (self.makespan_ns / MS)
                if self.completed else 'TIMEOUT')
        return '<Run %s/%s %s>' % (self.app, self.strategy, span)


def run_parallel(app, strategy='vanilla', interference=NO_INTERFERENCE,
                 seed=0, n_pcpus=4, fg_vcpus=4, n_threads=None, pinned=True,
                 scale=1.0, timeout_ns=DEFAULT_TIMEOUT_NS, irs_config=None,
                 profile=None, fault_plan=None, observe=None):
    """Run one parallel benchmark under one strategy and interference
    level; measure makespan, utilization, and background progress.

    ``fault_plan`` (a :class:`repro.faults.FaultPlan`) subjects the run
    to a deterministic fault campaign; when omitted the machine is
    perfectly reliable.

    ``observe`` (an :class:`ObservabilityConfig`, or True for the
    defaults) turns on span probes and timeline sampling; when omitted
    nothing is captured."""
    scenario = build_scenario(seed=seed, n_pcpus=n_pcpus, fg_vcpus=fg_vcpus,
                              interference=interference, pinned=pinned,
                              scale=scale)
    config, timeline = _wire(scenario, strategy, irs_config, fault_plan,
                             observe)
    if profile is None:
        profile = get_profile(app)
    workload = ParallelWorkload(scenario.sim, scenario.fg_kernel, profile,
                                n_threads=n_threads, scale=scale,
                                prefix='fg.%s' % app)
    workload.install()

    sim = scenario.sim
    deadline = sim.now + timeout_ns
    while not workload.is_done and sim.now < deadline:
        sim.run_until(min(sim.now + _RUN_CHUNK_NS, deadline))

    makespan = workload.makespan_ns()
    elapsed = (makespan if makespan is not None
               else sim.now - workload.started_at)
    utilization = (utilization_vs_fair_share(scenario.fg_vm,
                                             scenario.machine, elapsed)
                   if elapsed > 0 else 0.0)
    bg_rates = [bg.progress_rate() for bg in scenario.bg_workloads
                if isinstance(bg, ParallelWorkload)]
    metrics = RunMetrics(scenario.machine, scenario.all_kernels, elapsed)
    if config is not None:
        config.export(sim, machine=scenario.machine, timeline=timeline)
    return ParallelRunResult(app, strategy, makespan, utilization, bg_rates,
                             metrics, workload, scenario, timeline=timeline)


class ServerRunResult:
    """Outcome of one server-benchmark run."""

    def __init__(self, kind, strategy, throughput, latency_summary,
                 metrics, timeline=None):
        self.kind = kind
        self.strategy = strategy
        self.throughput = throughput
        self.latency_summary = latency_summary
        self.metrics = metrics
        self.timeline = timeline

    def __repr__(self):
        return '<ServerRun %s/%s %.0f req/s p99=%.2fms>' % (
            self.kind, self.strategy, self.throughput,
            self.latency_summary['p99'] / MS)


def run_server(kind, strategy='vanilla', n_hogs=1, seed=0, n_pcpus=4,
               fg_vcpus=4, warmup_ns=300 * MS, measure_ns=2 * SEC,
               irs_config=None, fault_plan=None, observe=None,
               **server_kwargs):
    """Run a server workload (``'specjbb'`` or ``'ab'``) against N CPU
    hogs; measure steady-state throughput and latency."""
    interference = (InterferenceSpec('hogs', width=n_hogs) if n_hogs > 0
                    else NO_INTERFERENCE)
    scenario = build_scenario(seed=seed, n_pcpus=n_pcpus,
                              fg_vcpus=fg_vcpus, interference=interference)
    config, timeline = _wire(scenario, strategy, irs_config, fault_plan,
                             observe)
    if kind == 'specjbb':
        server = SpecJbbWorkload(scenario.sim, scenario.fg_kernel,
                                 **server_kwargs)
    elif kind == 'ab':
        server = ApacheBenchWorkload(scenario.sim, scenario.fg_kernel,
                                     **server_kwargs)
    else:
        raise ValueError("server kind must be 'specjbb' or 'ab'")
    server.install()

    sim = scenario.sim
    sim.run_until(sim.now + warmup_ns)
    # Reset for steady-state measurement.
    server.latency.reset()
    server.completed = 0
    server.started_at = sim.now
    sim.run_until(sim.now + measure_ns)

    metrics = RunMetrics(scenario.machine, scenario.all_kernels, measure_ns)
    if config is not None:
        config.export(sim, machine=scenario.machine, timeline=timeline)
    return ServerRunResult(kind, strategy, server.throughput(),
                           server.latency.summary(), metrics,
                           timeline=timeline)


def run_migration_probe(n_inter_vms, seed=0, warmup_ns=None,
                        trigger='preemption', stopper_kwargs=None):
    """One Figure 1(b) trial: measure the latency of migrating a
    running process off a vCPU contended by ``n_inter_vms`` CPU-hog VMs.

    ``trigger='preemption'`` issues the migration right after the source
    vCPU is involuntarily preempted — the instant guest load balancing
    *would* want to react, and the scenario the paper measures.
    ``trigger='random'`` issues it at a random phase instead. Returns
    the observed latency in ns (None if the probe never fired).
    """
    interference = (InterferenceSpec('hogs', width=1, n_vms=n_inter_vms)
                    if n_inter_vms > 0 else NO_INTERFERENCE)
    scenario = build_scenario(seed=seed, n_pcpus=2, fg_vcpus=2,
                              interference=interference)
    sim = scenario.sim
    kernel = scenario.fg_kernel
    task = kernel.spawn('probe.target', cpu_hog(10 * MS), gcpu_index=0)
    stopper = MigrationStopper(sim, kernel, **(stopper_kwargs or {}))

    if warmup_ns is None:
        warmup_ns = sim.rng.uniform_ns('probe.offset', 150 * MS, 450 * MS)
    sim.run_until(sim.now + warmup_ns)

    result = {}

    def on_complete(request):
        result['latency'] = request.latency_ns
        sim.stop()

    source_vcpu = kernel.gcpus[0].vcpu

    def issue():
        stopper.request(task, kernel.gcpus[1], on_complete=on_complete)

    if trigger == 'preemption' and n_inter_vms > 0:
        poll_ns = 200_000  # 0.2 ms

        def wait_for_preemption():
            if source_vcpu.is_runnable:
                issue()
            else:
                sim.after(poll_ns, wait_for_preemption)

        wait_for_preemption()
    else:
        issue()
    sim.run_until(sim.now + 20 * SEC)
    return result.get('latency')
