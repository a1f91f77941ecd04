"""The cluster coordinator: N hosts under one simulated clock.

``Cluster`` glues the layer together: it builds the hosts from their
specs, runs one shared monitor timer that samples every host's
interference profiles, routes VM requests through admission and the
placement policy, and (optionally) runs the :class:`RebalanceDaemon`
that live-migrates VMs off hot-spot hosts.

Everything is driven by the one underlying :class:`Simulator`, so a
four-host cluster is exactly as deterministic as a single machine: the
monitor tick, the daemon tick, and every migration completion are
ordinary events on the one queue.
"""

import itertools

from ..faults import HOST_FAULT_KINDS
from ..guestos import GuestKernel
from ..hypervisor import VM
from ..obs import eventlog
from ..obs.eventlog import EventLog
from ..simkernel.units import MS
from ..workloads import HogWorkload, OpenLoopServerWorkload
from .admission import AdmissionController
from .host import HOST_FAILED, Host
from .migration import LiveMigrationEngine
from .placement import make_policy
from .profiles import HostInterferenceMonitor
from .recovery import ClusterFaultDriver, HostWatchdog, RecoveryController

WORKLOAD_SERVER = 'server'
WORKLOAD_HOGS = 'hogs'
WORKLOAD_NONE = 'none'


class VmRequest:
    """One VM the cluster is asked to run.

    ``workload`` selects the guest's task mix (``'server'`` installs an
    open-loop request server, ``'hogs'`` one CPU hog per vCPU,
    ``'none'`` boots an idle guest whose tasks the caller installs —
    the traffic layer's serving replicas use this); ``irs`` opts the
    guest into scheduler activations (effective only on an IRS host);
    ``working_set_mb`` feeds the migration cost model.
    """

    def __init__(self, name, n_vcpus=2, workload=WORKLOAD_SERVER,
                 irs=False, weight=256, working_set_mb=128,
                 workload_kwargs=None):
        if workload not in (WORKLOAD_SERVER, WORKLOAD_HOGS,
                            WORKLOAD_NONE):
            raise ValueError('unknown workload %r' % workload)
        self.name = name
        self.n_vcpus = n_vcpus
        self.workload = workload
        self.irs = irs
        self.weight = weight
        self.working_set_mb = working_set_mb
        self.workload_kwargs = dict(workload_kwargs or {})

    def __repr__(self):
        return '<VmRequest %s %dvcpu %s%s>' % (
            self.name, self.n_vcpus, self.workload,
            ' irs' if self.irs else '')


class Cluster:
    """N hosts, one clock, one placement policy."""

    def __init__(self, sim, host_specs, policy='first_fit', irs_config=None,
                 cost_model=None, monitor_window_ns=50 * MS, rebalance=None,
                 fault_plan=None):
        if not host_specs:
            raise ValueError('a cluster needs at least one host')
        self.sim = sim
        self.hosts = []
        # vm -> the Host it is resident on; every host keeps this one
        # map in step with its resident_vms.
        self.vm_hosts = {}
        for index, spec in enumerate(host_specs):
            host = Host(sim, spec, index, irs_config=irs_config,
                        vm_hosts=self.vm_hosts)
            host.monitor = HostInterferenceMonitor(host)
            self.hosts.append(host)
        self.policy = make_policy(policy)
        self.admission = AdmissionController()
        # Observability plane: the structured health event log (always
        # on — it records low-rate control-plane decisions, like the
        # admission ledger) and the allocator of the flow ids that
        # stitch cross-host trace spans together.
        self.events = EventLog()
        self.flow_ids = itertools.count(1)
        # Fault plane: one injector shared by every host machine (the
        # vIRQ/runstate/migrator hooks) and by the cluster-level driver
        # (host faults, migration aborts). None = reliable everything.
        self.injector = fault_plan.build(sim) if fault_plan else None
        if self.injector is not None:
            for host in self.hosts:
                host.machine.fault_injector = self.injector
        self.migration = LiveMigrationEngine(sim, cost_model=cost_model,
                                             injector=self.injector)
        self.migration.events = self.events
        self.migration.flow_ids = self.flow_ids
        self.monitor_window_ns = monitor_window_ns
        self.daemon = rebalance
        if self.daemon is not None:
            self.daemon.bind(self)
        self.recovery = RecoveryController(self)
        self.migration.on_orphan = self.recovery.recover_vm
        self.watchdog = HostWatchdog(self)
        self.fault_driver = None
        if self.injector is not None and any(
                spec.kind in HOST_FAULT_KINDS
                for spec in self.injector.specs):
            self.fault_driver = ClusterFaultDriver(self, self.injector)
        self.kernels = {}            # vm -> GuestKernel
        self.servers = []            # OpenLoopServerWorkload instances
        self.placements = []         # (vm_name, host_name) decisions
        self._names = set()          # every VM name ever admitted
        if sim.sanitizer is not None:
            sim.sanitizer.attach_cluster(self)

    def _event(self, kind, **detail):
        """Append one entry to the health event log at the current
        simulated time."""
        self.events.append(self.sim.now, kind, **detail)

    def start(self):
        """Boot every host and arm the periodic timers."""
        for host in self.hosts:
            host.start()
        self.sim.after(self.monitor_window_ns, self._sample_monitors)
        if self.daemon is not None:
            self.daemon.start()
        self.watchdog.start()
        if self.fault_driver is not None:
            self.fault_driver.start()

    def _sample_monitors(self):
        now = self.sim.now
        for host in self.hosts:
            host.monitor.sample(now)
        self.sim.after(self.monitor_window_ns, self._sample_monitors)

    # ------------------------------------------------------------------
    # VM intake
    # ------------------------------------------------------------------

    def submit(self, request):
        """Admit, place, and boot one VM. Returns the chosen
        :class:`Host`, or ``None`` on rejection. A request reusing a
        VM name the cluster already knows (resident, in flight, or
        parked) is rejected outright — a double-submit must not
        corrupt host state."""
        if request.name in self._names:
            self.sim.trace.count('cluster.duplicate_submits')
            self.admission.reject(request, self.sim)
            self._event(eventlog.EVENT_REJECT, vm=request.name,
                        reason='duplicate')
            return None
        candidates = self.admission.admissible_hosts(self.hosts, request)
        if not candidates:
            self.admission.reject(request, self.sim)
            self._event(eventlog.EVENT_REJECT, vm=request.name,
                        reason='capacity')
            return None
        host = self.policy.choose(candidates, request)
        self.admission.admit(request, host)
        self.placements.append((request.name, host.name))
        self._event(eventlog.EVENT_PLACE, vm=request.name, host=host.name,
                    policy=self.policy.name,
                    scores=self.policy.scores(candidates, request))
        self.sim.trace.spans.instant(
            self.sim.now, eventlog.EVENT_PLACE, 'cluster/%s/placement' % host.name,
            vm=request.name)

        vm = VM(request.name, n_vcpus=request.n_vcpus, sim=self.sim,
                weight=request.weight)
        vm.working_set_mb = request.working_set_mb
        host.place_vm(vm)
        kernel = GuestKernel(self.sim, vm, host.machine)
        if request.irs:
            host.enable_irs_guest(kernel)
        self._install_workload(kernel, request)
        self.migration.note_placed(vm)
        self.kernels[vm] = kernel
        self._names.add(request.name)
        return host

    def _install_workload(self, kernel, request):
        if request.workload == WORKLOAD_NONE:
            return
        if request.workload == WORKLOAD_HOGS:
            HogWorkload(self.sim, kernel, count=request.n_vcpus,
                        name='%s.hog' % request.name,
                        **request.workload_kwargs).install()
        else:
            server = OpenLoopServerWorkload(self.sim, kernel,
                                            name='%s.srv' % request.name,
                                            **request.workload_kwargs)
            server.install()
            self.servers.append(server)

    # ------------------------------------------------------------------
    # VM retirement (the autoscaler's scale-down path)
    # ------------------------------------------------------------------

    def retire_vm(self, vm):
        """Permanently remove ``vm`` from service: evict it from its
        host and drop it from the kernel ledger. Returns True on
        success; False while the VM is in flight or not resident
        anywhere (mid-recovery) — callers retry on a later tick. The
        name stays burned in ``_names``: retirement is forever, a
        resubmit under the same name would corrupt the event history.
        """
        if vm in self.migration.in_flight:
            return False
        host = self.host_of(vm)
        if host is None:
            return False
        host.evict_vm(vm)
        self.kernels.pop(vm, None)
        self.sim.trace.count('cluster.retired')
        self._event(eventlog.EVENT_VM_RETIRE, vm=vm.name, host=host.name)
        return True

    # ------------------------------------------------------------------
    # Host faults (called by the ClusterFaultDriver, or directly by
    # tests and bespoke scenarios)
    # ------------------------------------------------------------------

    def crash_host(self, host, down_ns=250 * MS):
        """Crash ``host``: in-flight migrations *to* it roll back to
        their sources, its resident VMs are orphaned into the recovery
        controller, and the host reboots empty after ``down_ns``.
        Migrations *from* it keep flying — the hand-off already
        happened — and adopt normally on their targets."""
        if host.state == HOST_FAILED:
            return
        self.sim.trace.count('cluster.host_crashes')
        self._event(eventlog.EVENT_HOST_CRASH, host=host.name,
                    down_ns=down_ns)
        # Order matters: rolling back inbound flights releases the
        # doomed host's reservations while its state is still sane.
        self.migration.abort_targeting(host)
        orphans = host.fail()
        self.recovery.on_host_crash(host, orphans)
        self.sim.after(down_ns, self.recovery.on_host_recovered, host)

    def degrade_host(self, host, down_ns=250 * MS):
        """Degrade ``host``'s health: the watchdog quarantines it (no
        new placements; the rebalance daemon drains it) until it
        recovers after ``down_ns``."""
        if host.state != 'up':
            return
        self.sim.trace.count('cluster.host_degrades')
        self._event(eventlog.EVENT_HOST_DEGRADE, host=host.name,
                    down_ns=down_ns)
        host.degrade()
        self.sim.after(down_ns, self.recovery.on_host_recovered, host)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def host_of(self, vm):
        """The host a VM currently resides on, or ``None`` while it is
        in flight."""
        return self.vm_hosts.get(vm)

    def vm_named(self, name):
        """The live VM called ``name`` (resident or in flight), or
        ``None`` — retired VMs left the kernel ledger for good."""
        for vm in self.kernels:
            if vm.name == name:
                return vm
        return None

    def __repr__(self):
        return '<Cluster %d hosts policy=%s>' % (
            len(self.hosts), self.policy.name)


class RebalanceDaemon:
    """Evict VMs from hot-spot hosts, with hysteresis.

    A host *trips* when its observed steal pressure crosses
    ``high_threshold``; a tripped host sheds one VM per check period
    until pressure drops below ``low_threshold``, where it re-arms.
    The trigger is steal pressure alone — a host whose VMs exactly fill
    its pCPUs runs at run-pressure 1.0 with zero contention and must
    not churn. Target choice *does* use the composite score, and a move
    only happens when it buys at least ``min_gain`` of score — the
    hysteresis plus the gain bar plus a per-VM cooldown keep the daemon
    from ping-ponging a VM between two warm hosts.
    """

    def __init__(self, high_threshold=0.35, low_threshold=0.15,
                 check_period_ns=100 * MS, vm_cooldown_ns=500 * MS,
                 min_gain=0.2):
        if low_threshold > high_threshold:
            raise ValueError('low_threshold must not exceed high_threshold')
        self.high_threshold = high_threshold
        self.low_threshold = low_threshold
        self.check_period_ns = check_period_ns
        self.vm_cooldown_ns = vm_cooldown_ns
        self.min_gain = min_gain
        self.cluster = None
        self.tripped = set()         # host indexes over-threshold
        self._last_moved = {}        # vm -> sim time of last migration

    def bind(self, cluster):
        self.cluster = cluster

    def start(self):
        self.cluster.sim.after(self.check_period_ns, self._check)

    def _check(self):
        sim = self.cluster.sim
        self._prune_cooldowns(sim.now)
        for host in self.cluster.hosts:
            if host.state == HOST_FAILED:
                # A dead host has nothing to shed; drop its trip state
                # so it re-arms cleanly when it reboots empty.
                self.tripped.discard(host.index)
                continue
            if host.quarantined:
                # Drain: one VM per period off a quarantined host,
                # regardless of pressure.
                self._evict_one(host, drain=True)
                continue
            pressure = host.steal_pressure()
            if host.index in self.tripped:
                if pressure < self.low_threshold:
                    self.tripped.discard(host.index)
                    sim.trace.count('cluster.rebalance_rearms')
                else:
                    self._evict_one(host)
            elif pressure > self.high_threshold:
                self.tripped.add(host.index)
                sim.trace.count('cluster.rebalance_trips')
                self._evict_one(host)
        sim.after(self.check_period_ns, self._check)

    def _prune_cooldowns(self, now):
        """Cooldown bookkeeping stays bounded across long chaos runs:
        drop entries whose cooldown has expired (they can never block a
        move again) — which also covers VMs that left the cluster
        (migrated away, crashed, or parked) once their window lapses."""
        expired = [vm for vm, moved in self._last_moved.items()
                   if now - moved >= self.vm_cooldown_ns]
        for vm in expired:
            del self._last_moved[vm]

    def _evict_one(self, host, drain=False):
        victim = self._pick_victim(host, drain=drain)
        if victim is None:
            return
        target = self._pick_target(host, victim, drain=drain)
        if target is None:
            return
        reason = 'drain' if drain else 'rebalance'
        record = self.cluster.migration.migrate(victim, host, target,
                                                reason=reason)
        if record is not None:
            self._last_moved[victim] = self.cluster.sim.now
            if drain:
                self.cluster.sim.trace.count('cluster.drain_migrations')

    def _pick_victim(self, host, drain=False):
        """The resident VM suffering the most steal (it gains the most
        from leaving), skipping in-flight and cooling-down VMs. When
        draining a quarantined host, cooldowns and missing profiles do
        not block eviction — everything must leave."""
        now = self.cluster.sim.now
        best = None
        best_steal = -1.0
        for vm in host.resident_vms:
            if vm in self.cluster.migration.in_flight:
                continue
            if self.cluster.migration.breaker_open(vm):
                continue
            if not drain:
                moved = self._last_moved.get(vm)
                if moved is not None and now - moved < self.vm_cooldown_ns:
                    continue
            profile = host.monitor.profiles.get(vm)
            steal = profile.steal_frac if profile is not None else 0.0
            if profile is None and not drain:
                continue
            if steal > best_steal:
                best = vm
                best_steal = steal
        return best

    def _pick_target(self, source, vm, drain=False):
        """The least-interfered accepting host with room. A rebalance
        move must buy at least ``min_gain`` of score over staying; a
        drain off a quarantined host takes any accepting host — the
        point is to leave, not to profit."""
        source_score = source.interference_score()
        best = None
        best_score = None
        for host in self.cluster.hosts:
            if host is source or not host.accepting:
                continue
            if not host.has_capacity(vm.n_vcpus):
                continue
            score = host.interference_score()
            if not drain and score > source_score - self.min_gain:
                continue
            if best_score is None or score < best_score:
                best = host
                best_score = score
        return best
