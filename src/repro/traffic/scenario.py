"""The ``traffic-slo`` scenario: open-loop serving over the cluster.

Same consolidation topology as :func:`repro.cluster.run_consolidation`
— batch hog VMs land first, then the serving fleet — but the serving
side is driven by the traffic plane: one deterministic arrival process
fans out through a :class:`~repro.traffic.router.RequestRouter` into
bounded-queue replicas (:class:`~repro.traffic.serving.ReplicaServer`)
booted as ``workload='none'`` VMs, with an
:class:`~repro.traffic.slo.SloTracker` folding every completion and
shed into attainment/burn accounting and (optionally) an
:class:`~repro.traffic.autoscaler.SloAutoscaler` growing and shrinking
the fleet through the cluster's admission + placement path.

``open_loop=False`` runs the *same* topology with classic closed-loop
server threads instead — the comparison the figure draws: closed-loop
measurements let interference hide in the throttled offered load,
open-loop measurements surface it as queueing delay and SLO burn.
"""

from ..metrics import LatencyRecorder
from ..simkernel.units import MS, SEC
from ..cluster.cluster import VmRequest, WORKLOAD_NONE
from ..cluster.scenario import build_cluster, cluster_summary, submit_hogs
from .arrivals import make_arrivals
from .autoscaler import SloAutoscaler
from .router import RequestRouter
from .serving import ReplicaServer
from .slo import SloPolicy, SloTracker

# Counter prefixes surfaced in a traffic run's ``counters``: the
# cluster/fault ledger, the traffic plane's own counters (sheds,
# reroutes, scale actions) and the span ring's drop count.
TRAFFIC_COUNTER_PREFIXES = ('cluster.', 'faults.', 'traffic.',
                            'spans.dropped')


class TrafficService:
    """The serving fleet: replicas + router + SLO tracker.

    Owns replica lifecycle — :meth:`deploy_replica` books a
    ``workload='none'`` VM through the cluster's admission + placement
    path and installs a :class:`ReplicaServer` on its guest kernel;
    :meth:`retire_replica` takes it back out through
    :meth:`~repro.cluster.cluster.Cluster.retire_vm`. The autoscaler
    binds to this object (see :meth:`SloAutoscaler.bind`).
    """

    def __init__(self, sim, cluster, policy=None, router_policy='least_queue',
                 replica_vcpus=2, irs=False, service_ns=2 * MS, jitter=0.3,
                 queue_capacity=256, working_set_mb=64, name_prefix='srv'):
        self.sim = sim
        self.cluster = cluster
        self.events = cluster.events
        self.policy = policy or SloPolicy()
        self.tracker = SloTracker(self.policy, registry=sim.trace.metrics)
        self.router = RequestRouter(sim, cluster, policy=router_policy,
                                    events=self.events)
        self.replica_vcpus = replica_vcpus
        self.irs = irs
        self.service_ns = service_ns
        self.jitter = jitter
        self.queue_capacity = queue_capacity
        self.working_set_mb = working_set_mb
        self.name_prefix = name_prefix
        self.replicas = []           # every replica ever deployed
        self.injected = 0
        self._autoscaled = []        # LIFO stack of autoscaled replicas
        self._next_index = 0
        self._next_gap = None

    # ------------------------------------------------------------------
    # Fleet lifecycle
    # ------------------------------------------------------------------

    def deploy_replica(self, autoscaled=True):
        """Book one more serving VM through admission + placement and
        install a replica on it. Returns ``(name, replica)`` —
        ``replica`` is None when the cluster rejected the request."""
        name = '%s%d' % (self.name_prefix, self._next_index)
        self._next_index += 1
        request = VmRequest(name, n_vcpus=self.replica_vcpus,
                            workload=WORKLOAD_NONE, irs=self.irs,
                            working_set_mb=self.working_set_mb)
        host = self.cluster.submit(request)
        if host is None:
            return name, None
        vm = self.cluster.vm_named(name)
        kernel = self.cluster.kernels[vm]
        replica = ReplicaServer(
            self.sim, kernel, name=name, service_ns=self.service_ns,
            jitter=self.jitter, queue_capacity=self.queue_capacity,
            slo=self.tracker, events=self.events).install()
        self.replicas.append(replica)
        if autoscaled:
            self._autoscaled.append(replica)
        self.router.add_replica(replica)
        return name, replica

    def retire_replica(self, replica):
        """Scale-down path: retire the VM through the cluster, then
        shed the replica's backlog. False while the VM is in flight —
        the caller retries on a later tick."""
        if not self.cluster.retire_vm(replica.vm):
            return False
        replica.retire()
        return True

    def active_replicas(self):
        return [r for r in self.replicas if not r.retired]

    def pick_scaledown_victim(self):
        """Newest live autoscaled replica (LIFO) — the hand-placed
        baseline fleet is never a scale-down victim."""
        for replica in reversed(self._autoscaled):
            if not replica.retired:
                return replica
        return None

    # ------------------------------------------------------------------
    # Traffic dispatch (sim-event context)
    # ------------------------------------------------------------------

    def start_traffic(self, arrivals):
        """Arm the open-loop dispatcher: the first arrival fires one
        gap from now, and every arrival re-arms its own event for the
        next."""
        self._next_gap = arrivals.gaps(self.sim.rng).__next__
        self.sim.after(self._next_gap(), self._arrive)

    def _arrive(self):
        self.injected += 1
        now = self.sim.now
        if self.router.route(now) is None:
            # Nothing routable (fleet not up yet, or every replica is
            # mid-migration/orphaned): an open-loop client times out —
            # that is an SLO violation, not a pause in offered load.
            self.tracker.observe_shed(now)
        # Last, after route(): the re-arm takes the next seq, exactly
        # where the arrival always scheduled its successor, so tie
        # order against the events route() schedules is unchanged.
        self.sim.again(self._next_gap())

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------

    def reset_measurement(self):
        """Restart the measured window (after warmup): clear the SLO
        ledger, every replica's recorders, and the dispatch counters."""
        self.tracker.reset()
        for replica in self.replicas:
            if not replica.retired:
                replica.reset_measurement()
        self.injected = 0
        self.router.routed = 0
        self.router.unroutable = 0

    def merged_latency(self):
        merged = LatencyRecorder('traffic.latency')
        for replica in self.replicas:
            merged.extend(replica.latency.samples)
        return merged

    def merged_queue_wait(self):
        merged = LatencyRecorder('traffic.qwait')
        for replica in self.replicas:
            merged.extend(replica.queue_wait.samples)
        return merged

    def throughput(self, now=None):
        return sum(r.throughput(now) for r in self.active_replicas())

    def shed_total(self):
        return sum(r.shed for r in self.replicas)

    def completed_total(self):
        return sum(r.completed for r in self.replicas)


def _closed_loop_slo(merged, policy):
    """Shape a closed-loop run's latency samples like a tracker
    summary so both figure modes read the same keys. No dispatcher
    means nothing can shed, and burn is not defined without windows."""
    good = sum(1 for s in merged.samples if s <= policy.p99_target_ns)
    total = len(merged.samples)
    attainment = good / total if total else 1.0
    return {
        'requests': total,
        'good': good,
        'slow': total - good,
        'shed': 0,
        'attainment': round(attainment, 6),
        'error_rate': 0.0,
        'burn_rate': 0.0,
        'meets_slo': attainment >= policy.attainment_target,
        'p99_target_ns': policy.p99_target_ns,
    }


def run_traffic(strategy='vanilla', placement='first_fit', seed=0,
                open_loop=True, arrivals='poisson', rate_rps=4000,
                slo_p99_ms=20.0, router='least_queue', autoscale=False,
                max_replicas=8, n_hosts=4, host_pcpus=4,
                capacity_vcpus=6, n_hog_vms=4, hog_vcpus=2,
                n_server_vms=4, server_vcpus=4, service_ns=2 * MS,
                queue_capacity=256, rebalance=True, warmup_ns=600 * MS,
                measure_ns=1 * SEC, faults=None, observe=None):
    """Run one open-loop serving experiment and return its JSON-simple
    summary dict (what the pipeline caches).

    Topology: a consolidated cluster where every host already runs a
    batch hog tenant when its serving replica lands — hog and replica
    submissions interleave, so first-fit pairs each replica with a hog
    (the per-host capacity default of 6 vCPUs on 4 pCPUs makes each
    pair oversubscribed). Round-robin vCPU pinning then gives the
    replica *partial* pCPU overlap with its hog: some of its vCPUs get
    preempted while others run free — exactly the asymmetric-steal
    regime where scheduler activations pay off, and the cluster analogue
    of the paper's single-host consolidation setting.

    The fleet serves a router-dispatched open-loop arrival stream
    (``arrivals`` names a process in
    :data:`repro.traffic.arrivals.ARRIVALS`, or pass a built
    :class:`~repro.traffic.arrivals.ArrivalProcess`). With
    ``open_loop=False`` the same VMs instead run closed-loop request
    threads (the classic measurement this scenario exists to indict).
    ``autoscale=True`` arms the :class:`SloAutoscaler` with the
    baseline fleet as its floor and ``max_replicas`` as its ceiling.
    """
    sim, cluster, fault_name = build_cluster(
        strategy, placement, seed, n_hosts, host_pcpus, capacity_vcpus,
        rebalance, faults, observe)
    # Interleaved arrival: each hog lands just before its replica, so
    # first-fit pairs them on the same (capacity-limited) host and the
    # fleet shares every host with a batch tenant.
    submit_hogs(sim, cluster, n_hog_vms, hog_vcpus, 40 * MS)

    is_irs = strategy == 'irs'
    server_t0 = 30 * MS
    traffic_t0 = 40 * MS + max(n_hog_vms, n_server_vms) * 40 * MS
    policy = SloPolicy(p99_target_ns=int(slo_p99_ms * MS))
    service = None
    autoscaler = None
    closed_workloads = []

    if open_loop:
        service = TrafficService(
            sim, cluster, policy=policy, router_policy=router,
            replica_vcpus=server_vcpus, irs=is_irs, service_ns=service_ns,
            queue_capacity=queue_capacity)
        for i in range(n_server_vms):
            sim.at(server_t0 + i * 40 * MS, service.deploy_replica, False)
        process = make_arrivals(arrivals, rate_rps, stream='traffic.arrivals')
        sim.at(traffic_t0, service.start_traffic, process)
        if autoscale:
            autoscaler = SloAutoscaler(min_replicas=n_server_vms,
                                       max_replicas=max_replicas)
            autoscaler.bind(service)
            sim.at(traffic_t0, autoscaler.start)
    else:
        # Closed loop: same VMs, classic self-throttling request
        # threads — one per vCPU, no queue, no shedding.
        from ..workloads.server import ServerWorkload

        def _boot_closed(index):
            name = 'srv%d' % index
            request = VmRequest(name, n_vcpus=server_vcpus,
                                workload=WORKLOAD_NONE, irs=is_irs,
                                working_set_mb=64)
            if cluster.submit(request) is None:
                return
            kernel = cluster.kernels[cluster.vm_named(name)]
            workload = ServerWorkload(sim, kernel, n_threads=server_vcpus,
                                      service_ns=service_ns, jitter=0.3,
                                      name=name).install()
            closed_workloads.append(workload)

        for i in range(n_server_vms):
            sim.at(server_t0 + i * 40 * MS, _boot_closed, i)

    cluster.start()
    sim.run_until(warmup_ns)
    if open_loop:
        service.reset_measurement()
    else:
        for workload in closed_workloads:
            workload.latency.reset()
            workload.completed = 0
            workload.started_at = sim.now
    sim.run_until(warmup_ns + measure_ns)

    if open_loop:
        merged = service.merged_latency()
        queue_wait = service.merged_queue_wait()
        slo_summary = service.tracker.snapshot(sim.now)
        throughput = service.throughput()
        injected = service.injected
        completed = service.completed_total()
        shed = service.shed_total()
        unroutable = service.router.unroutable
        n_replicas = len(service.active_replicas())
    else:
        merged = LatencyRecorder('traffic.latency')
        throughput = 0.0
        for workload in closed_workloads:
            merged.extend(workload.latency.samples)
            throughput += workload.throughput()
        queue_wait = LatencyRecorder('traffic.qwait')
        slo_summary = _closed_loop_slo(merged, policy)
        injected = completed = len(merged.samples)
        shed = unroutable = 0
        n_replicas = len(closed_workloads)

    return {
        'strategy': strategy,
        'placement': placement,
        'seed': seed,
        'open_loop': open_loop,
        'arrivals': getattr(arrivals, 'kind', arrivals),
        'rate_rps': rate_rps,
        'router': router if open_loop else None,
        'throughput': throughput,
        'latency': merged.summary(),
        'queue_wait': queue_wait.summary(),
        'slo': slo_summary,
        'injected': injected,
        'completed': completed,
        'shed': shed,
        'unroutable': unroutable,
        'replicas': n_replicas,
        'autoscaler': (autoscaler.summary() if autoscaler is not None
                       else None),
        'rejections_dropped': cluster.admission.rejections_dropped,
        **cluster_summary(sim, cluster, fault_name, observe,
                          prefixes=TRAFFIC_COUNTER_PREFIXES),
    }
