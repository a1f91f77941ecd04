"""The ``cluster-consolidation`` scenario: hogs first, servers second.

The story mirrors the paper's consolidation setting lifted to a
cluster: batch VMs full of CPU hogs arrive first and spread across the
hosts, then latency-sensitive server VMs arrive. Under ``first_fit``
the servers pack onto the lowest-indexed hosts — exactly the ones the
hogs already saturated — so every server request eats steal time and
LHP-style preemption. ``interference_aware`` reads the monitors and
routes the servers to the quiet hosts. The rebalance daemon then tells
the second half of the story: under a bad initial placement it churns
(migrations, each with a real downtime cost) trying to repair it, while
a good placement stays quiet.
"""

from ..experiments.strategies import ALL_STRATEGIES
from ..faults import FaultPlan, parse_fault_plan
from ..metrics import LatencyRecorder
from ..obs.exporters import write_chrome_trace
from ..obs.exposition import write_exposition
from ..simkernel import Simulator
from ..simkernel.units import MS, SEC
from .cluster import Cluster, RebalanceDaemon, VmRequest
from .host import HostSpec

# Counter prefixes surfaced in ClusterRunResult.counters — the
# fault/recovery ledger the resilience figure and the determinism gate
# read (parked VMs, rollbacks, leaked-reservation-free aborts, ...),
# plus the span ring's drop count so reports can warn on truncation.
CLUSTER_COUNTER_PREFIXES = ('cluster.', 'faults.', 'spans.dropped')


class ClusterRunResult:
    """Everything the figure needs from one cluster run."""

    def __init__(self, strategy, placement, seed, throughput,
                 latency_summary, migrations, rejections, dropped,
                 placements, rebalance_trips, faults=None, counters=None,
                 recovered=0, parked=0, aborted_migrations=0,
                 host_crashes=0, events=None, event_counts=None):
        self.strategy = strategy
        self.placement = placement
        self.seed = seed
        self.throughput = throughput
        self.latency_summary = latency_summary
        self.migrations = migrations
        self.rejections = rejections
        self.dropped = dropped
        self.placements = placements
        self.rebalance_trips = rebalance_trips
        self.faults = faults
        self.counters = dict(counters or {})
        self.recovered = recovered
        self.parked = parked
        self.aborted_migrations = aborted_migrations
        self.host_crashes = host_crashes
        # Health event log (JSON-simple dicts, sim order) plus its
        # per-kind tally.
        self.events = list(events or [])
        self.event_counts = dict(event_counts or {})

    def summary(self):
        """JSON-simple dict (what the pipeline caches)."""
        return {
            'strategy': self.strategy,
            'placement': self.placement,
            'seed': self.seed,
            'throughput': self.throughput,
            'latency': self.latency_summary,
            'migrations': self.migrations,
            'rejections': self.rejections,
            'dropped': self.dropped,
            'placements': self.placements,
            'rebalance_trips': self.rebalance_trips,
            'faults': self.faults,
            'counters': self.counters,
            'recovered': self.recovered,
            'parked': self.parked,
            'aborted_migrations': self.aborted_migrations,
            'host_crashes': self.host_crashes,
            'events': self.events,
            'event_counts': self.event_counts,
        }


def run_consolidation(strategy='vanilla', placement='first_fit', seed=0,
                      n_hosts=4, host_pcpus=4, capacity_vcpus=None,
                      n_hog_vms=4, hog_vcpus=2, n_server_vms=4,
                      server_vcpus=2, arrivals_per_sec=400,
                      service_ns=2 * MS, rebalance=True,
                      warmup_ns=600 * MS, measure_ns=1 * SEC,
                      faults=None, observe=None):
    """Run one consolidation experiment and return a
    :class:`ClusterRunResult`.

    ``strategy`` is the per-host hypervisor strategy (every host gets
    the same one); server guests opt into IRS when the strategy is
    ``'irs'``. Hog VMs are always vanilla guests — they model opaque
    batch tenants. ``faults`` selects a chaos campaign: a campaign
    name (see :data:`repro.faults.CAMPAIGNS`), a
    :class:`~repro.faults.FaultPlan`, or ``None`` for a reliable
    cluster.

    ``observe`` (an :class:`~repro.experiments.harness.
    ObservabilityConfig`, or None for no capture) enables the cluster
    span probes and, at the end of the run, exports the Perfetto trace
    (``trace_out``), the health event log as JSONL (``events_out``),
    and the Prometheus
    text exposition (``metrics_out``). The health event log itself is
    always recorded — it is a low-rate control-plane ledger, like the
    admission ledger — only the exports and the span probes are opt-in.
    """
    if strategy not in ALL_STRATEGIES:
        raise ValueError('unknown strategy %r' % strategy)
    fault_plan = None
    fault_name = None
    if faults is not None:
        if isinstance(faults, FaultPlan):
            fault_plan = faults
        else:
            fault_plan = parse_fault_plan(faults)
        fault_name = fault_plan.name if fault_plan is not None else None
    sim = Simulator(seed=seed)
    if observe is not None and observe.spans:
        sim.trace.spans.enabled = True
    specs = [HostSpec('host%d' % i, n_pcpus=host_pcpus, strategy=strategy,
                      capacity_vcpus=capacity_vcpus)
             for i in range(n_hosts)]
    daemon = RebalanceDaemon() if rebalance else None
    cluster = Cluster(sim, specs, policy=placement, rebalance=daemon,
                      fault_plan=fault_plan)

    # Hogs arrive first, staggered so each lands on live monitor data.
    for i in range(n_hog_vms):
        request = VmRequest('hog%d' % i, n_vcpus=hog_vcpus,
                            workload='hogs', working_set_mb=256)
        sim.at(10 * MS + i * 30 * MS, cluster.submit, request)

    # Servers arrive once the hogs have been profiled for a few monitor
    # windows; they opt into IRS when the hosts offer it.
    is_irs = strategy == 'irs'
    server_t0 = 10 * MS + n_hog_vms * 30 * MS + 60 * MS
    for i in range(n_server_vms):
        request = VmRequest(
            'srv%d' % i, n_vcpus=server_vcpus, workload='server',
            irs=is_irs, working_set_mb=64,
            workload_kwargs={'arrivals_per_sec': arrivals_per_sec,
                             'service_ns': service_ns})
        sim.at(server_t0 + i * 40 * MS, cluster.submit, request)

    cluster.start()
    sim.run_until(warmup_ns)
    for server in cluster.servers:
        server.reset_measurement()
    sim.run_until(warmup_ns + measure_ns)

    merged = LatencyRecorder('cluster.latency')
    throughput = 0.0
    dropped = 0
    for server in cluster.servers:
        merged.extend(server.latency.samples)
        throughput += server.throughput()
        dropped += server.dropped
    counters = sim.trace.metrics.counter_values(
        prefixes=CLUSTER_COUNTER_PREFIXES)
    if observe is not None:
        if observe.trace_out:
            write_chrome_trace(observe.trace_out,
                               spans=sim.trace.spans, now_ns=sim.now)
        if observe.events_out:
            cluster.events.write_jsonl(observe.events_out)
        if observe.metrics_out:
            write_exposition(observe.metrics_out, sim.trace.metrics)
    return ClusterRunResult(
        strategy=strategy,
        placement=placement,
        seed=seed,
        throughput=throughput,
        latency_summary=merged.summary(),
        migrations=len(cluster.migration.records),
        rejections=cluster.admission.rejected,
        dropped=dropped,
        placements=list(cluster.placements),
        rebalance_trips=sim.trace.counters['cluster.rebalance_trips'],
        faults=fault_name,
        counters=counters,
        recovered=cluster.recovery.replaced,
        parked=len(cluster.recovery.parked),
        aborted_migrations=len(cluster.migration.aborted),
        host_crashes=sum(host.crashes for host in cluster.hosts),
        events=cluster.events.to_dicts(),
        event_counts=cluster.events.counts(),
    )
