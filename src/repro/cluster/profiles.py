"""Per-VM interference profiles and the per-host monitor.

The placement policies and the rebalance daemon need *per-host*
signals, and the simulator's tracer counters are global to the
simulation — every host shares one ``hv.preemptions`` stream. The
monitor therefore reads the per-object counters the substrate already
keeps (vCPU runstate accounting, per-vCPU involuntary-preemption and
SA-offer counts) and differentiates them over a fixed sampling window,
yielding one :class:`VmInterferenceProfile` per resident VM per window.

Each sample also publishes the host's aggregate pressures into the
host's *own* metric scope (``Host.metrics``, prefix ``host.<name>.``):
two hosts can never write each other's gauges, so per-host dashboards
and the Prometheus exposition read clean, uncontaminated streams — the
per-host counter isolation the global tracer could not provide.

Determinism: sampling happens on the cluster's monitor timer (one sim
event), snapshots are plain integer reads, and VMs are visited in
residency order — the same inputs always produce the same profiles.
"""


class VmInterferenceProfile:
    """One VM's interference signature over one sampling window.

    * ``run_frac`` / ``steal_frac`` — CPU consumed / CPU wanted-but-
      denied, as a fraction of the window per vCPU summed over vCPUs
      (a 2-vCPU VM fully stalled contributes 2.0 steal);
    * ``preempt_per_sec`` — involuntary preemptions (the LHP/LWP
      trigger events);
    * ``sa_per_sec`` — scheduler-activation offers targeted at the VM
      (nonzero only under IRS hosts).
    """

    __slots__ = ('vm_name', 'run_frac', 'steal_frac', 'preempt_per_sec',
                 'sa_per_sec')

    def __init__(self, vm_name, run_frac, steal_frac, preempt_per_sec,
                 sa_per_sec):
        self.vm_name = vm_name
        self.run_frac = run_frac
        self.steal_frac = steal_frac
        self.preempt_per_sec = preempt_per_sec
        self.sa_per_sec = sa_per_sec

    def __repr__(self):
        return ('<Profile %s run=%.2f steal=%.2f preempt/s=%.0f sa/s=%.0f>'
                % (self.vm_name, self.run_frac, self.steal_frac,
                   self.preempt_per_sec, self.sa_per_sec))


def _vm_counters(vm, now):
    """Cumulative (run_ns, steal_ns, preemptions, sa_offers) of ``vm``,
    including the open runstate interval."""
    run = steal = preempts = offers = 0
    for vcpu in vm.vcpus:
        r, s, __ = vcpu.snapshot_accounting(now)
        run += r
        steal += s
        preempts += vcpu.preemptions
        offers += vcpu.sa_offers
    return run, steal, preempts, offers


class HostInterferenceMonitor:
    """Window-differentiated interference profiles for one host.

    ``track``/``forget`` follow VM residency (a VM migrating in starts
    a fresh baseline — its history on the previous host does not leak
    into this host's score). ``sample`` is called by the cluster on its
    monitor timer.
    """

    # Composite-score weights. Steal is the direct contention signal;
    # run pressure predicts contention a newcomer would suffer on a
    # fully-committed host even when nobody steals *yet*; the protocol
    # rates are tie-breaking refinements (they spike on LHP-style
    # preemption churn before steal accumulates).
    STEAL_WEIGHT = 3.0
    RUN_WEIGHT = 1.0
    PREEMPT_WEIGHT = 0.001
    SA_WEIGHT = 0.001

    def __init__(self, host):
        self.host = host
        self._baseline = {}          # vm -> cumulative counters
        self._last_sample_at = host.sim.now
        self.profiles = {}           # vm -> VmInterferenceProfile
        self.windows = 0

    def track(self, vm):
        """Start profiling ``vm`` (placement or migration arrival)."""
        self._baseline[vm] = _vm_counters(vm, self.host.sim.now)

    def forget(self, vm):
        """Stop profiling ``vm`` (eviction)."""
        self._baseline.pop(vm, None)
        self.profiles.pop(vm, None)

    def sample(self, now):
        """Close the current window: rebuild ``profiles`` from the
        counter deltas since the previous sample."""
        elapsed = now - self._last_sample_at
        self._last_sample_at = now
        if elapsed <= 0:
            return
        seconds = elapsed / 1e9
        profiles = {}
        for vm in self.host.resident_vms:
            baseline = self._baseline.get(vm)
            counters = _vm_counters(vm, now)
            self._baseline[vm] = counters
            if baseline is None:
                continue
            run_d = counters[0] - baseline[0]
            steal_d = counters[1] - baseline[1]
            profiles[vm] = VmInterferenceProfile(
                vm.name,
                run_frac=run_d / elapsed,
                steal_frac=steal_d / elapsed,
                preempt_per_sec=(counters[2] - baseline[2]) / seconds,
                sa_per_sec=(counters[3] - baseline[3]) / seconds)
        self.profiles = profiles
        self.windows += 1
        # Publish the aggregate signals into the host's isolated metric
        # scope (its prefix guarantees no cross-host contamination).
        metrics = self.host.metrics
        metrics.count('monitor_windows')
        metrics.set_gauge('steal_pressure', round(self.steal_pressure, 6))
        metrics.set_gauge('run_pressure', round(self.run_pressure, 6))
        metrics.set_gauge('resident_vms', len(self.host.resident_vms))

    # ------------------------------------------------------------------
    # Aggregate scores
    # ------------------------------------------------------------------

    @property
    def steal_pressure(self):
        """Total steal fraction normalized per pCPU: 0 = nobody waits,
        1.0 = one full pCPU's worth of runnable-but-denied demand per
        pCPU."""
        n_pcpus = self.host.spec.n_pcpus
        return sum(p.steal_frac for p in self.profiles.values()) / n_pcpus

    @property
    def run_pressure(self):
        """Total run fraction normalized per pCPU (1.0 = fully busy)."""
        n_pcpus = self.host.spec.n_pcpus
        return sum(p.run_frac for p in self.profiles.values()) / n_pcpus

    @property
    def preempt_per_sec(self):
        return sum(p.preempt_per_sec for p in self.profiles.values())

    @property
    def sa_per_sec(self):
        return sum(p.sa_per_sec for p in self.profiles.values())

    def host_score(self):
        """Composite interference score of this host (higher = a worse
        home for a latency-sensitive newcomer)."""
        return (self.STEAL_WEIGHT * self.steal_pressure
                + self.RUN_WEIGHT * self.run_pressure
                + self.PREEMPT_WEIGHT * self.preempt_per_sec
                + self.SA_WEIGHT * self.sa_per_sec)
