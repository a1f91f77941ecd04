"""Pull-based IRS — the paper's stated future work (Section 6).

    "The ideal migration should be pull-based and happen when a vCPU
    becomes idle. This calls for a new mechanism of task migration —
    migrating a 'running' task from a preempted vCPU."

This module implements that mechanism. When a guest CPU is about to go
idle (its runqueue is empty and ordinary idle balancing found nothing),
it probes its siblings' *hypervisor* runstates and steals the frozen
current task of a preempted vCPU — the one task vanilla Linux can never
touch because it looks "running".

Compared to the push-based IRS of Sections 3–4:

* no hypervisor modification at all — no vIRQ, no preemption delay, no
  fairness concern (the probe hypercall already exists);
* migrations happen exactly when capacity is free, so the load estimate
  cannot be wrong (the limitation Section 6 calls out for push);
* but a task frozen while every sibling is busy stays frozen — push
  and pull are complementary, and :func:`install_pull_irs` can be
  combined with :func:`repro.core.install_irs`.
"""

from ..guestos.task import TASK_READY, TASK_RUNNING
from ..simkernel.units import MS

DEFAULT_IDLE_POLL_NS = 4 * MS


class PullMigrator:
    """Steals the frozen current task of preempted sibling vCPUs."""

    def __init__(self, sim, kernel, hypercalls, tag_tasks=True,
                 idle_poll_ns=DEFAULT_IDLE_POLL_NS):
        self.sim = sim
        self.kernel = kernel
        self.hypercalls = hypercalls
        # Tag pulled tasks like the push migrator does, so the Figure 4
        # wakeup rule applies to them too.
        self.tag_tasks = tag_tasks
        # An idle vCPU re-checks for frozen victims on this period
        # (NOHZ-style idle housekeeping); 0 disables polling and pulls
        # happen only at idle entry.
        self.idle_poll_ns = idle_poll_ns
        self._polls = {}             # gcpu -> Event
        self.pulls = 0

    def try_pull(self, idle_gcpu):
        """Called by the idle path. Returns the stolen task (already
        enqueued on ``idle_gcpu``) or None."""
        source = self._find_victim(idle_gcpu)
        if source is None:
            return None
        task = source.current
        # Detach the frozen task from the preempted vCPU. No checkpoint
        # is needed: a frozen vCPU has no open execution interval.
        source.current = None
        task.state = TASK_READY
        task.last_descheduled = self.sim.now
        if self.tag_tasks:
            task.irs_tag = True
        source.rq.update_min_vruntime(None)
        # Enqueue locally, like a pull.
        kernel = self.kernel
        kernel._apply_migration_penalty(task)
        task.migrations += 1
        task.gcpu = idle_gcpu
        task.vruntime = kernel.policy.place_waking_vruntime(
            task, idle_gcpu.rq)
        idle_gcpu.rq.enqueue(task)
        self.pulls += 1
        self.sim.trace.count('irs.pulls')
        return task

    # ------------------------------------------------------------------
    # Idle polling
    # ------------------------------------------------------------------

    def on_idle(self, gcpu):
        """Called by the kernel when ``gcpu`` blocks idle: arm the
        periodic re-check for frozen victims."""
        if self.idle_poll_ns <= 0:
            return
        self._cancel_poll(gcpu)
        self._polls[gcpu] = self.sim.after(self.idle_poll_ns,
                                           self._poll, gcpu)

    def _cancel_poll(self, gcpu):
        event = self._polls.pop(gcpu, None)
        if event is not None:
            event.cancel()

    def _poll(self, gcpu):
        self._polls.pop(gcpu, None)
        if not (gcpu.is_guest_idle and gcpu.vcpu.is_blocked):
            return
        victim = self._find_victim(gcpu)
        if victim is None:
            self._polls[gcpu] = self.sim.after(self.idle_poll_ns,
                                               self._poll, gcpu)
            return
        # Wake the idle vCPU; its dispatch path runs _schedule, whose
        # pull hook performs the steal.
        self.sim.trace.count('irs.pull_kicks')
        self.kernel.machine.wake_vcpu(gcpu.vcpu)

    def _find_victim(self, idle_gcpu):
        """A sibling whose vCPU is preempted while a task sits frozen
        on it. Prefer the vCPU with the most steal time (longest
        expected wait)."""
        best = None
        best_steal = -1
        for gcpu in self.kernel.gcpus:
            if gcpu is idle_gcpu:
                continue
            if gcpu.current is None or gcpu.in_sa_handler:
                continue
            if gcpu.current.state != TASK_RUNNING:
                continue
            if not self.hypercalls.vcpu_is_preempted(gcpu.vcpu):
                continue
            steal = self.hypercalls.steal_time(gcpu.vcpu)
            if steal > best_steal:
                best, best_steal = gcpu, steal
        return best


def install_pull_irs(machine, kernels, tag_tasks=True):
    """Enable pull-based IRS for the given guest kernels. Composable
    with the push-based :func:`repro.core.install_irs`. Returns the
    list of installed :class:`PullMigrator` objects."""
    migrators = []
    for kernel in kernels:
        migrator = PullMigrator(machine.sim, kernel, machine.hypercalls,
                                tag_tasks=tag_tasks)
        migrators.append(kernel.attach_pull_migrator(migrator))
    return migrators
