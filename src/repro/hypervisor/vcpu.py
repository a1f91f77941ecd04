"""Virtual CPU model.

A vCPU is the hypervisor's schedulable entity. It mirrors Xen's runstate
machine (``running`` / ``runnable`` / ``blocked`` / ``offline``) and keeps
the accounting the rest of the system depends on:

* **steal time** — time spent ``runnable`` (wanting a pCPU but not getting
  one). The guest's ``rt_avg`` load metric folds this in, exactly as the
  paper relies on (Section 3.3).
* **credits / priority** — owned by the credit scheduler.
* **pending vIRQs** and the per-vCPU ``sa_pending`` flag used by the IRS
  scheduler-activation channel (Algorithm 1).
"""

RUNSTATE_RUNNING = 'running'
RUNSTATE_RUNNABLE = 'runnable'
RUNSTATE_BLOCKED = 'blocked'
RUNSTATE_OFFLINE = 'offline'

# Credit-scheduler priorities, lower value = scheduled first.
PRI_BOOST = 0
PRI_UNDER = 1
PRI_OVER = 2

_PRIORITY_NAMES = {PRI_BOOST: 'BOOST', PRI_UNDER: 'UNDER', PRI_OVER: 'OVER'}


class VCpu:
    """One virtual CPU belonging to a :class:`~repro.hypervisor.vm.VM`."""

    def __init__(self, vm, index, sim):
        self.vm = vm
        self.index = index
        self.sim = sim
        self.name = '%s.v%d' % (vm.name, index)

        # Placement.
        self.pcpu = None          # pCPU whose runqueue we belong to
        self.pinned_pcpu = None   # hard affinity, or None if floating

        # Runstate machine.
        self.runstate = RUNSTATE_OFFLINE
        self.runstate_since = 0
        # ``runstate == RUNSTATE_RUNNING``, kept as a plain attribute
        # because the hot paths read it on every switch and tick. Only
        # set_runstate writes it.
        self.is_running = False

        # Cumulative runstate accounting (ns).
        self.run_ns = 0
        self.steal_ns = 0         # time spent runnable
        self.blocked_ns = 0
        # Involuntary preemptions suffered (descheduled while runnable).
        # Tracer counters are per-simulation, so multi-host interference
        # profiling needs the count attributable to this vCPU alone.
        self.preemptions = 0

        # Credit scheduler state.
        self.credits = 0
        self.priority = PRI_UNDER
        self.slice_start = 0

        # Event-channel state.
        self.pending_virqs = []
        self.sa_pending = False
        # Explicit SA protocol state machine (repro.core.protocol);
        # created by the sender on the first activation offer. Lives
        # here so the sanitizer and the fault plane can read the round
        # state without importing the core layer.
        self.sa_protocol = None
        # SA offers targeted at this vCPU (per-VM notification rate for
        # cluster interference profiling; the sender's totals are
        # host-wide).
        self.sa_offers = 0

        # Relaxed co-scheduling: a co-stopped vCPU is undispatchable.
        self.costopped = False

        # Guest-side companion (set by the guest kernel when attached).
        self.gcpu = None

    # ------------------------------------------------------------------
    # Runstate transitions (called only by the scheduler / machine)
    # ------------------------------------------------------------------

    def set_runstate(self, new_state, now):
        """Move to ``new_state``, charging the elapsed interval to the
        bucket of the state being left."""
        elapsed = now - self.runstate_since
        old = self.runstate
        if old == RUNSTATE_RUNNING:
            self.run_ns += elapsed
        elif old == RUNSTATE_RUNNABLE:
            self.steal_ns += elapsed
        elif old == RUNSTATE_BLOCKED:
            self.blocked_ns += elapsed
        self.runstate = new_state
        self.is_running = new_state == RUNSTATE_RUNNING
        self.runstate_since = now

    def snapshot_accounting(self, now):
        """Return (run_ns, steal_ns, blocked_ns) including the partial
        charge for the current (still open) runstate interval."""
        run, steal, blocked = self.run_ns, self.steal_ns, self.blocked_ns
        elapsed = now - self.runstate_since
        if self.runstate == RUNSTATE_RUNNING:
            run += elapsed
        elif self.runstate == RUNSTATE_RUNNABLE:
            steal += elapsed
        elif self.runstate == RUNSTATE_BLOCKED:
            blocked += elapsed
        return run, steal, blocked

    # ------------------------------------------------------------------
    # Convenience predicates
    # ------------------------------------------------------------------

    @property
    def is_runnable(self):
        return self.runstate == RUNSTATE_RUNNABLE

    @property
    def is_blocked(self):
        return self.runstate == RUNSTATE_BLOCKED

    def __repr__(self):
        return '<VCpu %s %s pri=%s credits=%d>' % (
            self.name, self.runstate,
            _PRIORITY_NAMES.get(self.priority, self.priority), self.credits)
