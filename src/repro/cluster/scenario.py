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

The run skeleton here — :func:`build_cluster`, :func:`submit_hogs` and
:func:`cluster_summary` — is shared with
:func:`repro.traffic.run_traffic`, which swaps the server VMs for the
traffic plane's serving fleet.
"""

from ..experiments.strategies import ALL_STRATEGIES
from ..faults import FaultPlan, parse_fault_plan
from ..metrics import LatencyRecorder
from ..simkernel import Simulator
from ..simkernel.units import MS, SEC
from .cluster import Cluster, RebalanceDaemon, VmRequest
from .host import HostSpec

# Counter prefixes surfaced in a cluster run's ``counters`` — the
# fault/recovery ledger the resilience figure and the determinism gate
# read (parked VMs, rollbacks, leaked-reservation-free aborts, ...),
# plus the span ring's drop count so reports can warn on truncation.
CLUSTER_COUNTER_PREFIXES = ('cluster.', 'faults.', 'spans.dropped')


def build_cluster(strategy, placement, seed, n_hosts, host_pcpus,
                  capacity_vcpus, rebalance, faults, observe):
    """Build the simulator and an ``n_hosts`` cluster running
    ``strategy`` on every host. ``faults`` is a campaign name, a
    :class:`~repro.faults.FaultPlan` or None; ``observe`` (None = no
    capture) enables the span probes. Returns
    ``(sim, cluster, fault_name)``."""
    if strategy not in ALL_STRATEGIES:
        raise ValueError('unknown strategy %r' % strategy)
    fault_plan = None
    fault_name = None
    if faults is not None:
        fault_plan = (faults if isinstance(faults, FaultPlan)
                      else parse_fault_plan(faults))
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
    return sim, cluster, fault_name


def submit_hogs(sim, cluster, n, vcpus, every_ns):
    """Submit ``n`` batch hog VMs, one every ``every_ns`` from 10 ms,
    so each lands on live monitor data."""
    for i in range(n):
        request = VmRequest('hog%d' % i, n_vcpus=vcpus,
                            workload='hogs', working_set_mb=256)
        sim.at(10 * MS + i * every_ns, cluster.submit, request)


def cluster_summary(sim, cluster, fault_name, observe,
                    prefixes=CLUSTER_COUNTER_PREFIXES):
    """The summary keys every cluster run shares, then the run's
    exports. The counters are read before exporting: the trace export
    flushes open spans, which can count ``spans.dropped``."""
    summary = {
        'migrations': len(cluster.migration.records),
        'rejections': cluster.admission.rejected,
        'faults': fault_name,
        'counters': sim.trace.metrics.counter_values(prefixes=prefixes),
        'host_crashes': sum(host.crashes for host in cluster.hosts),
        'events': cluster.events.to_dicts(),
        'event_counts': cluster.events.counts(),
    }
    if observe is not None:
        observe.export(sim, events=cluster.events)
    return summary


def run_consolidation(strategy='vanilla', placement='first_fit', seed=0,
                      n_hosts=4, host_pcpus=4, capacity_vcpus=None,
                      n_hog_vms=4, hog_vcpus=2, n_server_vms=4,
                      server_vcpus=2, arrivals_per_sec=400,
                      service_ns=2 * MS, rebalance=True,
                      warmup_ns=600 * MS, measure_ns=1 * SEC,
                      faults=None, observe=None):
    """Run one consolidation experiment and return its JSON-simple
    summary dict (what the pipeline caches).

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
    sim, cluster, fault_name = build_cluster(
        strategy, placement, seed, n_hosts, host_pcpus, capacity_vcpus,
        rebalance, faults, observe)
    submit_hogs(sim, cluster, n_hog_vms, hog_vcpus, 30 * MS)

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
    return {
        'strategy': strategy,
        'placement': placement,
        'seed': seed,
        'throughput': throughput,
        'latency': merged.summary(),
        'dropped': dropped,
        'placements': list(cluster.placements),
        'rebalance_trips': sim.trace.counters['cluster.rebalance_trips'],
        'recovered': cluster.recovery.replaced,
        'parked': len(cluster.recovery.parked),
        'aborted_migrations': len(cluster.migration.aborted),
        **cluster_summary(sim, cluster, fault_name, observe),
    }
