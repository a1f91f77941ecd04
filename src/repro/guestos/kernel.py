"""The guest kernel: the lean scheduling core of one VM.

It owns task lifecycle and CFS dispatch (wake/schedule/preempt/block)
and composes the rest of the guest layer as cohesive engines:
:class:`~repro.guestos.interp.ActionInterpreter` (workload-action
execution, the hot path), :class:`~repro.guestos.syncobjects.SyncEngine`
(lock/barrier/queue wait-grant) and
:class:`~repro.guestos.timers.TickDriver` (quantum/tick/NOHZ), whose
ticks the machine's :class:`~repro.guestos.timers.TickTimer` times.

Execution is charged between events in integer nanoseconds; when the
hypervisor deschedules a vCPU the guest's view simply freezes — its
current task stays "running" and its timer ticks stop — which is
precisely the semantic gap IRS bridges. Optional components plug in
through two attach points that do work beyond the assignment
(:meth:`GuestKernel.attach_sa_receiver`,
:meth:`GuestKernel.attach_pull_migrator`), the ``delay_preempt`` slot
that ``install_delayed_preemption`` assigns, and the IRS hooks
``sa_begin`` / ``sa_context_switch`` / ``sa_ack`` /
``migrate_limbo_task``.
"""

from ..hypervisor.hypercalls import SCHEDOP_BLOCK, SCHEDOP_YIELD
from ..workloads.actions import Compute
from .balancer import GuestBalancer
from .cfs import CfsConfig, CfsPolicy
from .gcpu import GuestCpu
from .interp import ActionInterpreter
from .syncobjects import SyncEngine
from .task import (NICE_0_WEIGHT, TASK_EXITED, TASK_MIGRATING, TASK_READY,
                   TASK_RUNNING, TASK_SLEEPING, Task)
from .timers import TickDriver, TickTimer, TimerService


class GuestKernel:
    """A Linux-like kernel driving the tasks of one VM."""

    def __init__(self, sim, vm, machine, cfs_config=None):
        self.sim = sim
        self.vm = vm
        self.bind_machine(machine)
        self.policy = CfsPolicy(cfs_config or CfsConfig())
        self.gcpus = []
        for i, vcpu in enumerate(vm.vcpus):
            gcpu = GuestCpu(self, vcpu, i)
            vcpu.gcpu = gcpu
            self.gcpus.append(gcpu)
        self.balancer = GuestBalancer(self, self.policy)
        self.timers = TimerService(sim, self)
        self.ticks = TickDriver(self)
        self.sync = SyncEngine(self)
        self.interp = ActionInterpreter(self)
        self.tasks = []
        # Optional components: the first two wired via the attach
        # points below, the third assigned by its installer.
        self.sa_receiver = None      # IRS receiver (repro.core)
        self.pull_migrator = None    # pull-based IRS (repro.core.pull_irs)
        self.delay_preempt = None    # delay-preemption baseline
        vm.attach_guest(self)

    # ==================================================================
    # Attach points (wiring that does more than assign a slot)
    # ==================================================================

    def bind_machine(self, machine):
        """Run on ``machine``: its hypercall facade, and its guest tick
        timer (the first kernel bound to a machine makes it)."""
        self.machine = machine
        self.hypercalls = machine.hypercalls
        if machine.guest_ticks is None:
            machine.guest_ticks = TickTimer(machine)

    def attach_sa_receiver(self, receiver, wake_rule=None):
        """Install the guest half of IRS: ``receiver`` handles
        ``VIRQ_SA_UPCALL`` and the VM advertises itself IRS-capable to
        the hypervisor. ``wake_rule`` (when not None) sets the
        balancer's tagged-wakeup preemption rule (Figure 4)."""
        self.sa_receiver = receiver
        self.vm.irs_capable = True
        if wake_rule is not None:
            self.balancer.irs_wake_rule = wake_rule
        return receiver

    def attach_pull_migrator(self, migrator):
        """Install pull-based IRS; idle polls are armed here because
        already-idle vCPUs never pass through the kernel's idle path."""
        self.pull_migrator = migrator
        for gcpu in self.gcpus:
            if gcpu.is_guest_idle:
                migrator.on_idle(gcpu)
        return migrator

    # ==================================================================
    # Task lifecycle
    # ==================================================================

    def spawn(self, name, program, gcpu_index=None, weight=None,
              cache_footprint=1.0, on_exit=None):
        """Create a task and make it runnable on ``gcpu_index`` (or
        round-robin). Returns the :class:`Task`."""
        kwargs = {'cache_footprint': cache_footprint, 'on_exit': on_exit}
        if weight is not None:
            kwargs['weight'] = weight
        task = Task(name, program, **kwargs)
        self.tasks.append(task)
        if gcpu_index is None:
            gcpu_index = (len(self.tasks) - 1) % len(self.gcpus)
        target = self.gcpus[gcpu_index]
        task.gcpu = target
        self.wake_task(task, target=target)
        return task

    def wake_task(self, task, target=None, preempt_in_place=None):
        """Make a sleeping (or migrator-limbo) task runnable.

        Without an explicit ``target`` the wake balancer picks one.
        Returns True if the task was woken."""
        if task.state not in (TASK_SLEEPING, TASK_MIGRATING):
            return False
        if target is None:
            target, preempt = self.balancer.select_gcpu_for_wake(task)
        else:
            preempt = bool(preempt_in_place)
        task.wakeups += 1
        task.vruntime = self.policy.place_waking_vruntime(task, target.rq)
        task.state = TASK_READY
        task.gcpu = target
        target.rq.enqueue(task)
        self.sim.trace.count('guest.wakeups')

        vcpu = target.vcpu
        if vcpu.is_blocked:
            # Idle vCPU: kick it through the hypervisor (wake boosting
            # applies, so it typically preempts a CPU hog promptly).
            self.machine.wake_vcpu(vcpu)
        elif vcpu.is_running and not target.in_sa_handler:
            if target.current is None:
                self._schedule(target)
            elif preempt or self.policy.should_preempt_on_wake(
                    target.current, task):
                self._preempt_current(target)
        # else: the vCPU is runnable (preempted at the hypervisor). The
        # enqueue stands but the resched interrupt pends — the task
        # waits for the vCPU, a lock-waiter preemption in the making.
        return True

    def pull_task(self, task, dest):
        """Balancer pull of a READY task onto ``dest``."""
        src = task.gcpu
        src.rq.dequeue(task)
        self._apply_migration_penalty(task)
        task.migrations += 1
        task.gcpu = dest
        task.vruntime = self.policy.place_waking_vruntime(task, dest.rq)
        dest.rq.enqueue(task)
        self.sim.trace.count('guest.pulls')

    def _apply_migration_penalty(self, task):
        """Cold caches: extend the in-flight compute segment."""
        if isinstance(task.action, Compute) and task.remaining_ns > 0:
            penalty = int(self.policy.config.migration_penalty_ns *
                          task.cache_footprint)
            task.remaining_ns += penalty

    # ==================================================================
    # Hypervisor interface (called by the credit scheduler)
    # ==================================================================

    def vcpu_started_running(self, vcpu):
        """Our vCPU got a pCPU: run stopper work, then resume."""
        gcpu = vcpu.gcpu
        while gcpu.pending_work:
            work = gcpu.pending_work.pop(0)
            work()
        if gcpu.current is not None:
            gcpu.run_started_at = self.sim.now
            self.machine.guest_ticks.arm(gcpu)
            self.interp.run(gcpu)
        else:
            self._schedule(gcpu)

    def vcpu_stopped_running(self, vcpu):
        """Our vCPU lost its pCPU: checkpoint and freeze."""
        gcpu = vcpu.gcpu
        self._checkpoint(gcpu, self.sim.now)
        # TickDriver.cancel_quantum, inlined (the hot half of every
        # vCPU switch).
        if gcpu.quantum_event is not None:
            gcpu.quantum_event.cancel()
        self.machine.guest_ticks.disarm(gcpu)
        gcpu.run_started_at = None

    def spin_resumable(self, vcpu):
        """True when :meth:`resume_spinning` may stand for a stop and a
        start of ``vcpu``: no stopper work is queued and its current
        task spins."""
        gcpu = vcpu.gcpu
        task = gcpu.current
        return not gcpu.pending_work and task is not None and task.spinning

    def resume_spinning(self, vcpu, time, exits=1, period=0):
        """Directed yields handed ``vcpu`` its pCPU straight back
        ``exits`` times, the last at ``time`` and each ``period`` after
        the one before: do, in closed form, what
        :meth:`vcpu_stopped_running` and then :meth:`vcpu_started_running`
        do to a spinning current task at each of those instants
        (checkpoint, cancel the quantum and tick, restart the tick).
        Only the last tick restart survives, so one is made. The caller
        checked :meth:`spin_resumable`."""
        gcpu = vcpu.gcpu
        self._checkpoint_periods(gcpu, time - (exits - 1) * period, period,
                                 exits)
        if gcpu.quantum_event is not None:
            gcpu.quantum_event.cancel()
        self.machine.guest_ticks.restart_at(gcpu, time)

    def deliver_virq(self, vcpu, virq):
        """A virtual interrupt arrived for ``vcpu``."""
        if self.sa_receiver is not None:
            self.sa_receiver.on_virq(vcpu.gcpu, virq)

    # ==================================================================
    # Core scheduling
    # ==================================================================

    def _schedule(self, gcpu):
        """Pick the next task on ``gcpu`` (vCPU must be running)."""
        next_task = gcpu.rq.pop_min()
        if next_task is None:
            pulled = self.balancer.idle_balance(gcpu, self.sim.now)
            if pulled is not None:
                next_task = gcpu.rq.pop_min()
        if next_task is None and self.pull_migrator is not None:
            # Pull-based IRS: steal the frozen current task of a
            # preempted sibling vCPU rather than going idle.
            pulled = self.pull_migrator.try_pull(gcpu)
            if pulled is not None:
                next_task = gcpu.rq.pop_min()
        if next_task is None:
            self._go_idle(gcpu)
            return
        next_task.state = TASK_RUNNING
        next_task.stint_ns = 0
        next_task.gcpu = gcpu
        if next_task.started_at is None:
            next_task.started_at = self.sim.now
        gcpu.current = next_task
        gcpu.run_started_at = self.sim.now
        self.machine.guest_ticks.arm(gcpu)
        self.interp.run(gcpu)

    def _go_idle(self, gcpu):
        """Nothing to run: block the vCPU at the hypervisor."""
        self.machine.guest_ticks.disarm(gcpu)
        gcpu.run_started_at = None
        if self.pull_migrator is not None:
            self.pull_migrator.on_idle(gcpu)
        self.hypercalls.sched_op(gcpu.vcpu, SCHEDOP_BLOCK)

    def _exit_current(self, gcpu):
        task = gcpu.current
        self._checkpoint(gcpu, self.sim.now)
        self.ticks.cancel_quantum(gcpu)
        task.state = TASK_EXITED
        task.finished_at = self.sim.now
        gcpu.current = None
        self.sim.trace.count('guest.task_exits')
        if task.on_exit is not None:
            task.on_exit(task, self.sim.now)
        self._schedule(gcpu)

    def _preempt_current(self, gcpu):
        """CFS-level preemption: current goes back to the runqueue."""
        task = gcpu.current
        if task is None:
            return
        self._checkpoint(gcpu, self.sim.now)
        self.ticks.cancel_quantum(gcpu)
        if task.spinning:
            self.machine.notify_spin_stop(gcpu.vcpu)
        task.state = TASK_READY
        task.last_descheduled = self.sim.now
        gcpu.current = None
        gcpu.rq.enqueue(task)
        self._schedule(gcpu)

    def _block_current(self, gcpu):
        """Current task sleeps (lock/barrier/queue/timer wait)."""
        task = gcpu.current
        self._checkpoint(gcpu, self.sim.now)
        self.ticks.cancel_quantum(gcpu)
        task.state = TASK_SLEEPING
        task.last_descheduled = self.sim.now
        gcpu.current = None
        self._schedule(gcpu)

    def _checkpoint(self, gcpu, now):
        """Charge the open execution interval, up to ``now`` (the clock,
        or the instant of an in-place PLE exit), to the current task."""
        task = gcpu.current
        if task is None or gcpu.run_started_at is None:
            return
        delta = now - gcpu.run_started_at
        if delta > 0:
            # Task.charge(delta), inlined: one call less per checkpoint.
            task.cpu_ns += delta
            task.stint_ns += delta
            task.vruntime += delta * NICE_0_WEIGHT // task.weight
            if not task.spinning and isinstance(task.action, Compute):
                remaining = task.remaining_ns - delta
                task.remaining_ns = remaining if remaining > 0 else 0
            gcpu.busy_ns += delta
        gcpu.run_started_at = now
        # RunQueue.update_min_vruntime(task), inlined.
        rq = gcpu.rq
        floor = task.vruntime
        entries = rq._entries
        if entries and entries[0][0] < floor:
            floor = entries[0][0]
        if floor > rq.min_vruntime:
            rq.min_vruntime = floor

    def _checkpoint_periods(self, gcpu, first, period, count):
        """What :meth:`_checkpoint` at ``first`` and at each of the
        ``count - 1`` instants ``period`` apart after it does, with
        nothing else happening between them, in closed form: every
        checkpoint after the first charges one whole period, and the
        ``min_vruntime`` floor only rises, so it is folded once."""
        self._checkpoint(gcpu, first)
        if count > 1:
            task = gcpu.current
            span = period * (count - 1)
            task.charge_periods(period, count - 1)
            if not task.spinning and isinstance(task.action, Compute):
                remaining = task.remaining_ns - span
                task.remaining_ns = remaining if remaining > 0 else 0
            gcpu.busy_ns += span
            gcpu.run_started_at = first + span
            # RunQueue.update_min_vruntime(task), inlined.
            rq = gcpu.rq
            floor = task.vruntime
            entries = rq._entries
            if entries and entries[0][0] < floor:
                floor = entries[0][0]
            if floor > rq.min_vruntime:
                rq.min_vruntime = floor

    # ==================================================================
    # IRS hooks (used by repro.core)
    # ==================================================================

    def sa_begin(self, gcpu):
        """SA upcall arrived: pause the current task's accounting while
        the handler runs (handler time is kernel time)."""
        self._checkpoint(gcpu, self.sim.now)
        self.ticks.cancel_quantum(gcpu)
        if gcpu.current is not None and gcpu.current.spinning:
            self.machine.notify_spin_stop(gcpu.vcpu)
        gcpu.run_started_at = None
        gcpu.in_sa_handler = True

    def sa_context_switch(self, gcpu):
        """Deschedule the current task into migrator limbo. Returns
        ``(op, task)`` where op is the SCHEDOP to answer with."""
        task = gcpu.current
        if task is not None:
            task.state = TASK_MIGRATING
            task.irs_tag = True
            task.last_descheduled = self.sim.now
            gcpu.current = None
        op = SCHEDOP_YIELD if gcpu.rq.nr_ready > 0 else SCHEDOP_BLOCK
        return op, task

    def sa_ack(self, gcpu, op):
        """Return control to the hypervisor (Algorithm 1 line 15)."""
        gcpu.in_sa_handler = False
        self.hypercalls.sched_op(gcpu.vcpu, op)

    def migrate_limbo_task(self, task, target_gcpu, preempt_in_place=False):
        """Place a migrator-limbo task on ``target_gcpu``."""
        if task.state != TASK_MIGRATING:
            return False
        self._apply_migration_penalty(task)
        task.migrations += 1
        self.sim.trace.count('irs.migrations')
        return self.wake_task(task, target=target_gcpu,
                              preempt_in_place=preempt_in_place)
