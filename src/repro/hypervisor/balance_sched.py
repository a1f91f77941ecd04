"""Balance scheduling baseline (Sukwong & Kim, EuroSys'11 — the
paper's reference [30]).

A probabilistic co-scheduling scheme: instead of synchronizing sibling
vCPUs in time (strict/relaxed co-scheduling), *balance scheduling*
constrains placement so sibling vCPUs never share a pCPU runqueue —
raising the chance that runnable siblings actually run concurrently,
with none of co-scheduling's CPU fragmentation.

The paper's critique (Section 2.1): spreading siblings raises the
*probability* of co-execution but does nothing when a sibling's pCPU is
busy with another VM — LHP and LWP persist. This implementation lets
that critique be measured: it eliminates CPU stacking completely, yet
pinned-style interference results are unchanged.
"""


class BalanceScheduler:
    """Placement filter keeping sibling vCPUs on distinct pCPUs."""

    def __init__(self, machine, fallback):
        self.machine = machine
        # The ordinary (VM-oblivious) balancer supplies candidate
        # placements; we veto sibling collisions.
        self.fallback = fallback
        self.vetoes = 0

    # The credit scheduler calls the same interface as the plain
    # hypervisor balancer.

    def _has_sibling(self, vcpu, pcpu):
        for sibling in vcpu.vm.vcpus:
            if sibling is vcpu:
                continue
            if sibling.pcpu is pcpu and (sibling.is_running or
                                         sibling in pcpu.runq):
                return True
        return False

    def pick_pcpu_for_wake(self, vcpu):
        """The fallback's choice unless a sibling already lives there;
        then the least-loaded sibling-free pCPU."""
        choice = self.fallback.pick_pcpu_for_wake(vcpu)
        if not self._has_sibling(vcpu, choice):
            return choice
        self.vetoes += 1
        self.machine.sim.trace.count('balancesched.vetoes')
        candidates = [p for p in self.machine.pcpus
                      if not self._has_sibling(vcpu, p)]
        if not candidates:
            return choice                    # more siblings than pCPUs
        return min(candidates, key=lambda p: p.load)

    def maybe_steal(self, pcpu, local_candidate):
        """Steals are filtered the same way: never import a sibling."""
        candidate = self.fallback.maybe_steal(pcpu, local_candidate)
        if (candidate is not None and candidate is not local_candidate
                and self._has_sibling(candidate, pcpu)):
            self.machine.sim.trace.count('balancesched.vetoes')
            self.vetoes += 1
            return local_candidate
        return candidate

    def periodic_rebalance(self):
        """Rebalancing delegates, then repairs any sibling collision it
        introduced by bouncing the moved vCPU to a sibling-free pCPU."""
        moved = self.fallback.periodic_rebalance()
        for pcpu in self.machine.pcpus:
            for vcpu in list(pcpu.runq):
                if self._has_sibling(vcpu, pcpu):
                    candidates = [p for p in self.machine.pcpus
                                  if not self._has_sibling(vcpu, p)]
                    if candidates:
                        target = min(candidates, key=lambda p: p.load)
                        pcpu.remove_vcpu(vcpu)
                        target.insert_vcpu(vcpu)
                        self.machine.scheduler._tickle(target)
                        moved += 1
        return moved

