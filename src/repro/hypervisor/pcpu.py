"""Physical CPU model.

Each pCPU owns a runqueue of runnable vCPUs (the credit scheduler keeps
it priority-ordered) and at most one currently dispatched vCPU. The
``preempt_deferred`` flag marks a pCPU whose context switch is parked
while the guest processes an IRS scheduler activation (Section 3.1: the
hypervisor delays the preemption until the guest acknowledges).
"""


class PCpu:
    """One physical CPU."""

    def __init__(self, index):
        self.index = index
        self.name = 'pcpu%d' % index
        self.current = None          # VCpu currently dispatched, or None
        self.runq = []               # runnable VCpus, priority FIFO order
        # Set while an SA notification is outstanding for self.current;
        # further preemption triggers are subsumed until the guest acks.
        self.preempt_deferred = False
        # Cumulative busy time (ns) for utilization reporting.
        self.busy_ns = 0
        self._busy_since = None

    # ------------------------------------------------------------------
    # Runqueue helpers (orderliness is the scheduler's job; these keep
    # the invariants local and assertable)
    # ------------------------------------------------------------------

    def insert_vcpu(self, vcpu):
        """Insert ``vcpu`` behind the last entry of equal-or-higher
        priority (priority FIFO)."""
        pos = len(self.runq)
        for i, other in enumerate(self.runq):
            if other.priority > vcpu.priority:
                pos = i
                break
        self.runq.insert(pos, vcpu)
        vcpu.pcpu = self

    def insert_vcpu_head(self, vcpu):
        """Insert ``vcpu`` ahead of its priority class (used for BOOST
        wakes and relaxed-co laggard boosting)."""
        pos = 0
        for i, other in enumerate(self.runq):
            if other.priority >= vcpu.priority:
                pos = i
                break
            pos = i + 1
        self.runq.insert(pos, vcpu)
        vcpu.pcpu = self

    def remove_vcpu(self, vcpu):
        """Remove ``vcpu`` from the runqueue (it must be present)."""
        self.runq.remove(vcpu)

    def peek_best(self, incoming=None):
        """The runnable vCPU that would be dispatched next, or None.
        Co-stopped vCPUs (relaxed co-scheduling) are not dispatchable.
        ``incoming`` counts as queued where :meth:`insert_vcpu` would
        put it, without being queued."""
        for vcpu in self.runq:
            if incoming is not None and vcpu.priority > incoming.priority:
                if not incoming.costopped:
                    return incoming
                incoming = None
            if not vcpu.costopped:
                return vcpu
        if incoming is not None and not incoming.costopped:
            return incoming
        return None

    @property
    def nr_runnable(self):
        """Queued runnable vCPUs (not counting the one running)."""
        return len(self.runq)

    @property
    def load(self):
        """Crude load figure: queued + running vCPUs."""
        return len(self.runq) + (1 if self.current is not None else 0)

    # ------------------------------------------------------------------
    # Busy-time accounting
    # ------------------------------------------------------------------

    def mark_busy(self, now):
        if self._busy_since is None:
            self._busy_since = now

    def mark_idle(self, now):
        if self._busy_since is not None:
            self.busy_ns += now - self._busy_since
            self._busy_since = None

    def snapshot_busy(self, now):
        """Busy time including any open interval."""
        busy = self.busy_ns
        if self._busy_since is not None:
            busy += now - self._busy_since
        return busy

    def __repr__(self):
        cur = self.current.name if self.current else 'idle'
        return '<PCpu %d running=%s queue=%d>' % (
            self.index, cur, len(self.runq))
