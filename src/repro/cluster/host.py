"""A cluster host: one :class:`~repro.hypervisor.machine.Machine` plus
the capacity and strategy the cluster layer schedules against.

A :class:`HostSpec` is the declarative half (shape, strategy, capacity)
and a :class:`Host` the live half: it builds the machine, wires the
strategy through ``repro.experiments.strategies`` (the one name to
components table), and tracks VM residency, capacity reservations, and
the interference monitor the placement policies read.
"""

from ..core import IRSConfig, install_irs, install_irs_guest
from ..experiments.strategies import (ALL_STRATEGIES, IRS, VANILLA,
                                      apply_strategy)
from ..hypervisor import Machine
from ..obs import eventlog

# Host health states (repro.cluster.recovery drives the transitions).
HOST_UP = 'up'
HOST_DEGRADED = 'degraded'
HOST_FAILED = 'failed'


class HostSpec:
    """Declarative description of one host.

    ``capacity_vcpus`` is the admission ceiling (default: 2x the pCPU
    count, a conventional consolidation ratio). ``strategy`` selects
    the hypervisor-side components; guests opt into IRS per VM at
    placement time.
    """

    def __init__(self, name, n_pcpus=4, strategy=VANILLA,
                 capacity_vcpus=None):
        if n_pcpus < 1:
            raise ValueError('need at least one pCPU')
        if strategy not in ALL_STRATEGIES:
            raise ValueError('unknown host strategy %r (want one of %s)'
                             % (strategy, ', '.join(ALL_STRATEGIES)))
        self.name = name
        self.n_pcpus = n_pcpus
        self.strategy = strategy
        self.capacity_vcpus = (capacity_vcpus if capacity_vcpus is not None
                               else 2 * n_pcpus)

    def __repr__(self):
        return '<HostSpec %s %dpcpu/%dvcpu %s>' % (
            self.name, self.n_pcpus, self.capacity_vcpus, self.strategy)


class Host:
    """One live host of a :class:`~repro.cluster.cluster.Cluster`."""

    def __init__(self, sim, spec, index, irs_config=None, vm_hosts=None):
        self.sim = sim
        self.spec = spec
        self.index = index
        self.name = spec.name
        self.machine = Machine(sim, n_pcpus=spec.n_pcpus)
        self.irs_config = irs_config or IRSConfig()
        # Guests opt into IRS per VM at placement (enable_irs_guest).
        if spec.strategy == IRS:
            install_irs(self.machine, (), self.irs_config)
        else:
            apply_strategy(self.machine, spec.strategy)
        # Per-host metric scope: everything this host (and its monitor)
        # records lives under ``host.<name>.`` in the shared registry,
        # carrying a ``host`` label for the Prometheus exposition.
        # Distinct prefixes make cross-host contamination impossible by
        # construction — the fix for the global-counter limitation the
        # profiles module used to work around.
        self.metrics = sim.trace.metrics.scoped('host.%s.' % spec.name,
                                                host=spec.name)
        self.resident_vms = []
        # The cluster's vm -> host map (shared by its hosts): placing,
        # evicting and adopting a VM update it with resident_vms.
        self.vm_hosts = {} if vm_hosts is None else vm_hosts
        # vCPUs held for in-flight migrations targeting this host.
        self.reserved_vcpus = 0
        # Round-robin origin for per-VM pinning maps.
        self._next_pcpu = 0
        # HostInterferenceMonitor, installed by the cluster.
        self.monitor = None
        # Health plane (repro.cluster.recovery drives the transitions).
        self.state = HOST_UP
        # Quarantined hosts take no new placements and are drained by
        # the rebalance daemon; set/cleared by the HostWatchdog.
        self.quarantined = False
        self.crashes = 0

    def start(self):
        self.machine.start()

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------

    @property
    def used_vcpus(self):
        return (sum(vm.n_vcpus for vm in self.resident_vms)
                + self.reserved_vcpus)

    def has_capacity(self, n_vcpus):
        return self.used_vcpus + n_vcpus <= self.spec.capacity_vcpus

    @property
    def accepting(self):
        """May new VMs be placed (or migrated onto) this host?"""
        return self.state == HOST_UP and not self.quarantined

    # ------------------------------------------------------------------
    # Health transitions (driven by repro.cluster.recovery)
    # ------------------------------------------------------------------

    def fail(self):
        """Crash this host: every resident VM is evicted (vCPUs
        OFFLINE, schedulers deregistered) and returned as the orphan
        list the recovery controller must re-home. In-flight
        migrations involving this host are the cluster's problem —
        abort them *before* calling this."""
        orphans = list(self.resident_vms)
        for vm in orphans:
            self.evict_vm(vm)
        self.state = HOST_FAILED
        self.crashes += 1
        self.metrics.count('crashes')
        self._health_mark(eventlog.EVENT_HOST_CRASH,
                  orphans=len(orphans))
        return orphans

    def degrade(self):
        """Mark this host unhealthy; the watchdog quarantines it."""
        self.state = HOST_DEGRADED
        self.metrics.count('degrades')
        self._health_mark(eventlog.EVENT_HOST_DEGRADE)

    def recover(self):
        """Return the host to service (empty after a crash; still
        populated after a degradation). Monitor history is stale after
        an outage, so profiles restart from a fresh window."""
        self.state = HOST_UP
        self.metrics.count('recoveries')
        self._health_mark(eventlog.EVENT_HOST_RECOVER)
        if self.monitor is not None:
            self.monitor.profiles = {}
            for vm in self.resident_vms:
                self.monitor.track(vm)

    def _health_mark(self, phase, **detail):
        """Health-state transitions as instants on this host's trace
        track (one attribute test when spans are disabled)."""
        self.sim.trace.spans.instant(self.sim.now, phase,
                                     'cluster/%s/health' % self.name,
                                     **detail)

    # ------------------------------------------------------------------
    # VM lifecycle
    # ------------------------------------------------------------------

    def pinning_for(self, n_vcpus):
        """Deterministic round-robin pinning map: consecutive VMs start
        on consecutive pCPUs so load spreads inside the host."""
        start = self._next_pcpu
        self._next_pcpu = (start + n_vcpus) % self.spec.n_pcpus
        return [(start + i) % self.spec.n_pcpus for i in range(n_vcpus)]

    def place_vm(self, vm):
        """Register a freshly created VM on this host's machine."""
        self.machine.add_vm(vm, pinning=self.pinning_for(vm.n_vcpus))
        self.resident_vms.append(vm)
        self.vm_hosts[vm] = self
        self.metrics.count('placements')
        if self.monitor is not None:
            self.monitor.track(vm)

    def enable_irs_guest(self, kernel):
        """Give ``kernel`` the guest half of IRS (receiver + context
        switcher + migrator), against this host's config. A no-op on a
        host without a sender: the guest would never see activations."""
        if self.machine.sa_sender is None:
            return None
        return install_irs_guest(kernel, self.irs_config)

    def evict_vm(self, vm):
        """Live-migration pause: pull ``vm`` off this host. The VM
        belongs to no host until a target adopts it."""
        if self.monitor is not None:
            self.monitor.forget(vm)
        self.machine.detach_vm(vm)
        self.resident_vms.remove(vm)
        del self.vm_hosts[vm]
        self.metrics.count('evictions')

    def adopt_vm(self, vm):
        """Live-migration resume: accept a detached VM, repoint its
        guest kernel at this machine, and wake every vCPU with pending
        guest work."""
        self.machine.adopt_vm(vm, pinning=self.pinning_for(vm.n_vcpus))
        self.resident_vms.append(vm)
        self.vm_hosts[vm] = self
        self.metrics.count('adoptions')
        kernel = vm.guest
        if kernel is not None:
            # The kernel captured the source machine (and its hypercall
            # facade and tick timer) at construction; repoint them, plus
            # the IRS migrator's facade, or hypercalls would land on the
            # old host.
            kernel.bind_machine(self.machine)
            if kernel.sa_receiver is not None:
                kernel.sa_receiver.migrator.hypercalls = \
                    self.machine.hypercalls
            for gcpu in kernel.gcpus:
                if not gcpu.is_guest_idle:
                    self.machine.wake_vcpu(gcpu.vcpu)
        if self.monitor is not None:
            self.monitor.track(vm)

    # ------------------------------------------------------------------
    # Scores (read by placement policies and the rebalance daemon)
    # ------------------------------------------------------------------

    def steal_pressure(self):
        """Observed contention: aggregate steal fraction per pCPU over
        the last monitor window (0 when no window has elapsed)."""
        if self.monitor is None:
            return 0.0
        return self.monitor.steal_pressure

    def interference_score(self):
        """Composite placement score; see
        :meth:`HostInterferenceMonitor.host_score`."""
        if self.monitor is None:
            return 0.0
        return self.monitor.host_score()

    def __repr__(self):
        health = '' if self.state == HOST_UP else ' ' + self.state
        if self.quarantined:
            health += ' quarantined'
        return '<Host %s vms=%d used=%d/%d%s>' % (
            self.name, len(self.resident_vms), self.used_vcpus,
            self.spec.capacity_vcpus, health)
