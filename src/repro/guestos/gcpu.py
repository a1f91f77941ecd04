"""Per-vCPU guest CPU state.

A :class:`GuestCpu` is the guest kernel's view of one vCPU: runqueue,
current task, quantum handle, tick count, load tracking, and the SA
flag the rest of the guest layer keys off.
"""

from .loadavg import RtAvgTracker
from .runqueue import RunQueue


class GuestCpu:
    """Per-vCPU guest state: runqueue, current task, quantum, load."""

    def __init__(self, kernel, vcpu, index):
        self.kernel = kernel
        self.vcpu = vcpu
        self.index = index
        self.name = '%s.cpu%d' % (kernel.vm.name, index)
        self.rq = RunQueue(self)
        self.current = None
        # Simulation time when the current task's live stint began;
        # None whenever the task is not actually consuming cycles.
        self.run_started_at = None
        self.quantum_event = None
        self.tick_count = 0
        self.rt = RtAvgTracker(vcpu, kernel.sim)
        # Stopper work (e.g. migration requests) run at next dispatch.
        self.pending_work = []
        self.in_sa_handler = False
        self.busy_ns = 0

    @property
    def is_guest_idle(self):
        """Idle from the *guest's* point of view: nothing current and
        nothing queued. Says nothing about the hypervisor runstate."""
        return self.current is None and self.rq.nr_ready == 0

    def load_metric(self):
        """Busyness for placement decisions: decayed busy+steal fraction
        plus live task count."""
        return (self.rt.update() + self.rq.nr_ready +
                (1 if self.current is not None else 0))

    def __repr__(self):
        cur = self.current.name if self.current else 'idle'
        return '<GuestCpu %s cur=%s ready=%d>' % (
            self.name, cur, self.rq.nr_ready)
