"""Hypervisor-level vCPU load balancing (unpinned mode).

Models the placement mechanisms of a credit-scheduler hypervisor that,
being oblivious to VM sibling relationships, produce the **CPU
stacking** pathology of Section 5.6:

* **wake placement** — a waking vCPU goes to the pCPU that looks least
  loaded *according to the balancer's periodically refreshed load
  snapshot*. Real balancers act on sampled/averaged load, not on the
  instantaneous truth; when a barrier release wakes several sibling
  vCPUs within one snapshot window, they all see the same "emptiest"
  pCPU and stack on it. Blocking workloads make this worse: their vCPUs
  exhibit deceptive idleness, so the pCPUs hosting them always look
  underloaded next to the ones running CPU hogs.
* **work stealing** — an idle pCPU (or one about to run an ``OVER``
  vCPU) steals a higher-priority runnable vCPU from a peer, again
  without regard for siblings.
"""

from ..simkernel.units import MS
from .vcpu import PRI_UNDER

# One guest-tick of staleness: long enough that a barrier release's
# simultaneous wakes all see the same "least loaded" pCPU (the real
# idler-mask race), short enough that ordinary wakes act on usable data.
DEFAULT_SNAPSHOT_INTERVAL_NS = 1 * MS


class HypervisorBalancer:
    """VM-oblivious vCPU placement over pCPUs."""

    def __init__(self, machine,
                 snapshot_interval_ns=DEFAULT_SNAPSHOT_INTERVAL_NS):
        self.machine = machine
        self.snapshot_interval_ns = snapshot_interval_ns
        self._snapshot = None        # pcpu -> load at snapshot time
        self._snapshot_time = None

    # ------------------------------------------------------------------
    # Wake placement
    # ------------------------------------------------------------------

    def _load_snapshot(self):
        """The (possibly stale) per-pCPU loads placement decisions use."""
        now = self.machine.sim.now
        if (self._snapshot is None or
                now - self._snapshot_time >= self.snapshot_interval_ns):
            self._snapshot = {p: p.load for p in self.machine.pcpus}
            self._snapshot_time = now
        return self._snapshot

    def pick_pcpu_for_wake(self, vcpu):
        """Xen-style wake placement (``csched_cpu_pick``): move toward
        the pCPU that looks least loaded *in the stale snapshot*, with
        the previous pCPU winning ties.

        The staleness is the stacking trigger (Section 5.6): a barrier
        release wakes several sibling vCPUs inside one snapshot window,
        they all see the same "least loaded" pCPU, and pile onto it —
        while the deceptively idle pCPUs hosting blocked siblings keep
        attracting more of them.
        """
        snapshot = self._load_snapshot()
        best = None
        best_load = None
        for pcpu in self.machine.pcpus:
            load = snapshot[pcpu]
            if best_load is None or load < best_load:
                best, best_load = pcpu, load
            elif load == best_load and pcpu is vcpu.pcpu:
                best = pcpu
        return best if best is not None else vcpu.pcpu

    # ------------------------------------------------------------------
    # Periodic rebalancing (Xen's csched_cpu_pick at accounting)
    # ------------------------------------------------------------------

    def periodic_rebalance(self):
        """Each accounting period, spread *queued* vCPUs off crowded
        pCPUs when the imbalance is at least two, then re-pick homes
        for running vCPUs (Xen's ``csched_vcpu_acct`` →
        ``_csched_cpu_pick`` path). The re-pick is VM-oblivious: a
        running vCPU happily moves next to a *blocked sibling's* home
        pCPU because the sibling contributes no load — seeding the
        sibling co-location that becomes CPU stacking when the sibling
        wakes."""
        moved = 0
        while True:
            busiest = max(self.machine.pcpus, key=lambda p: p.load)
            idlest = min(self.machine.pcpus, key=lambda p: p.load)
            if busiest.load - idlest.load < 2:
                break
            candidate = None
            for vcpu in reversed(busiest.runq):
                if vcpu.pinned_pcpu is None:
                    candidate = vcpu
                    break
            if candidate is None:
                break
            busiest.remove_vcpu(candidate)
            idlest.insert_vcpu(candidate)
            moved += 1
            self.machine.sim.trace.count('hv.rebalances')
            self.machine.scheduler._tickle(idlest)
            if moved > 4 * len(self.machine.pcpus):
                break
        moved += self._repick_running()
        return moved

    def _repick_running(self):
        """Migrate a running, unpinned vCPU toward a strictly less
        loaded pCPU (one migration per accounting period, like the
        tick-paced csched_vcpu_acct)."""
        for pcpu in self.machine.pcpus:
            vcpu = pcpu.current
            if (vcpu is None or vcpu.pinned_pcpu is not None
                    or pcpu.preempt_deferred):
                continue
            idlest = min(self.machine.pcpus, key=lambda p: p.load)
            # Leaving `pcpu` removes this vCPU's own load unit, so a
            # strict improvement needs a gap of 2.
            if pcpu.load - idlest.load < 2 or idlest is pcpu:
                continue
            scheduler = self.machine.scheduler
            scheduler.force_yield(vcpu)
            if vcpu not in pcpu.runq:
                return 0       # re-picked where it ran: the attempt is spent
            self.machine.sim.trace.count('hv.repicks')
            pcpu.remove_vcpu(vcpu)
            idlest.insert_vcpu(vcpu)
            scheduler._tickle(idlest)
            return 1
        return 0

    # ------------------------------------------------------------------
    # Work stealing
    # ------------------------------------------------------------------

    def maybe_steal(self, pcpu, local_candidate):
        """Called at dispatch time. Returns the vCPU ``pcpu`` should
        run: the local candidate, or a better one stolen from a peer."""
        local_priority = (local_candidate.priority
                          if local_candidate is not None else None)
        # Stealing is profitable only if the local option is nothing or
        # an OVER vCPU while a peer queues BOOST/UNDER work.
        if local_priority is not None and local_priority <= PRI_UNDER:
            return local_candidate
        best = local_candidate
        for peer in self.machine.pcpus:
            if peer is pcpu:
                continue
            for candidate in peer.runq:
                if candidate.pinned_pcpu is not None:
                    continue
                if candidate.priority > PRI_UNDER:
                    continue
                if best is None or candidate.priority < best.priority:
                    best = candidate
                break  # only the head of each peer queue is stealable
        if best is not local_candidate and best is not None:
            self.machine.sim.trace.count('hv.steals')
        return best
