"""Guest-level load balancing: wake placement, periodic and idle pulls.

Vanilla Linux behaviour, with the two semantic gaps the paper identifies
left intact:

1. hypervisor-level imbalance (a preempted vCPU) creates **no** guest
   imbalance signal, so nothing triggers;
2. only READY tasks can be pulled — the task frozen "running" on a
   preempted vCPU is untouchable.

The IRS modification (Section 3.3, Figure 4) changes only wake
placement: when the waking task's previous vCPU currently runs an
IRS-migrated (tagged) task, the waker stays home and preempts the tagged
task instead of being migrated out — killing the ping-pong pattern and
preserving locality.
"""


class GuestBalancer:
    """Load-balancing decisions for one guest kernel."""

    def __init__(self, kernel, policy, irs_wake_rule=False):
        self.kernel = kernel
        self.policy = policy
        # True when the IRS ping-pong avoidance is active.
        self.irs_wake_rule = irs_wake_rule

    # ------------------------------------------------------------------
    # Wake placement
    # ------------------------------------------------------------------

    def select_gcpu_for_wake(self, task):
        """Pick the guest CPU a waking task should be enqueued on.

        Returns ``(gcpu, preempt_in_place)``; the second element is True
        only under the IRS wake rule, when the waker should preempt the
        tagged task currently occupying its home CPU.
        """
        gcpus = self.kernel.gcpus
        prev = task.gcpu if task.gcpu is not None else gcpus[0]

        # Previous CPU idle: always best (cache locality, no preemption).
        if prev.is_guest_idle:
            return prev, False

        # IRS rule: a tagged occupant of the home CPU is an intruder
        # parked there by the migrator; wake in place and preempt it.
        if self.irs_wake_rule and prev.current is not None \
                and prev.current.irs_tag:
            return prev, True

        # Vanilla: prefer any guest-idle sibling.
        for gcpu in gcpus:
            if gcpu.is_guest_idle:
                return gcpu, False

        # Everyone is busy: pick the least-loaded CPU by rt_avg plus
        # queue depth (Linux folds steal time into rt_avg, which is how
        # the guest "senses" hypervisor contention — the ab discussion
        # in Section 5.3).
        best = min(gcpus, key=lambda g: g.load_metric())
        return best, False

    # ------------------------------------------------------------------
    # Pull balancing (periodic + idle)
    # ------------------------------------------------------------------

    def _pullable(self, task, now):
        """READY, not cache hot. Running tasks are invisible here —
        that is the semantic gap."""
        return (now - task.last_descheduled >=
                self.policy.config.cache_hot_ns)

    def find_pull_candidate(self, local, now, ignore_cache_hot=False):
        """A task worth pulling onto ``local`` from the busiest sibling
        runqueue, or None. Used by both periodic and idle balancing."""
        busiest = None
        busiest_ready = 0
        for gcpu in self.kernel.gcpus:
            if gcpu is local:
                continue
            ready = gcpu.rq.nr_ready
            if ready > busiest_ready:
                busiest, busiest_ready = gcpu, ready
        if busiest is None:
            return None
        local_load = local.rq.nr_ready + (1 if local.current else 0)
        if busiest_ready <= local_load:
            return None
        # Pull the coldest eligible task (scan from the right: largest
        # vruntime ran longest ago).
        for task in reversed(busiest.rq.tasks()):
            if ignore_cache_hot or self._pullable(task, now):
                return task
        return None

    def periodic_balance(self, gcpu, now):
        """Periodic pull toward ``gcpu``. Returns the migrated task."""
        task = self.find_pull_candidate(gcpu, now)
        if task is None:
            return None
        self.kernel.pull_task(task, gcpu)
        return task

    def idle_balance(self, gcpu, now):
        """A CPU about to idle tries harder: cache hotness is ignored
        (idle beats cold caches). Returns the migrated task."""
        task = self.find_pull_candidate(gcpu, now, ignore_cache_hot=True)
        if task is None:
            return None
        self.kernel.pull_task(task, gcpu)
        return task
