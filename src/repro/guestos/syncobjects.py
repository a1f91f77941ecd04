"""Synchronization-object wait/grant engine.

The guest-side semantics of the workload sync primitives
(:mod:`repro.workloads.sync`): who blocks, who spins, who gets woken or
spin-granted when a lock/barrier/queue changes hands — plus the
delay-preemption notifications (Uhlig et al. baseline) that bracket
critical sections. Pure policy-free mechanics; the
:class:`~repro.guestos.kernel.GuestKernel` supplies block/wake/run and
the hypervisor spin notifications.

Handlers follow the one-shot action contract of
:mod:`repro.guestos.interp`: ``(gcpu, task, action) -> bool`` where
True means the action was consumed and the task may keep executing.
"""

from ..workloads import sync


class SyncEngine:
    """Wait-grant logic for locks, rwlocks, barriers and queues."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.sim = kernel.sim

    # ------------------------------------------------------------------
    # Mutex / spinlock
    # ------------------------------------------------------------------

    def do_acquire(self, gcpu, task, action):
        lock = action.lock
        if isinstance(lock, sync.SpinLock):
            status = lock.acquire(task)
            if status == sync.ACQUIRED:
                task.action = None
                self.notify_lock_acquired(gcpu)
                return True
            task.spinning = True
            self.kernel.machine.notify_spin_start(gcpu.vcpu)
            self.sim.trace.count('guest.spin_waits')
            return False
        status = lock.acquire(task)
        if status == sync.ACQUIRED:
            task.action = None
            self.notify_lock_acquired(gcpu)
            return True
        self.sim.trace.count('guest.block_waits')
        self.kernel._block_current(gcpu)
        return False

    def do_release(self, gcpu, task, action):
        lock = action.lock
        task.action = None
        self.notify_lock_released(gcpu)
        if isinstance(lock, sync.SpinLock):
            grantee = lock.release(task, self.actively_spinning)
            if grantee is not None:
                self.grant_spin(grantee)
                self.notify_grantee_lock(grantee)
        else:
            new_owner = lock.release(task)
            if new_owner is not None:
                new_owner.action = None
                self.notify_grantee_lock(new_owner)
                self.kernel.wake_task(new_owner)
        return True

    # ------------------------------------------------------------------
    # Reader-writer lock
    # ------------------------------------------------------------------

    def do_acquire_read(self, gcpu, task, action):
        return self._rw_acquire(gcpu, task, action.lock.acquire_read(task))

    def do_acquire_write(self, gcpu, task, action):
        return self._rw_acquire(gcpu, task, action.lock.acquire_write(task))

    def _rw_acquire(self, gcpu, task, status):
        if status == sync.ACQUIRED:
            task.action = None
            self.notify_lock_acquired(gcpu)
            return True
        self.sim.trace.count('guest.block_waits')
        self.kernel._block_current(gcpu)
        return False

    def do_release_read(self, gcpu, task, action):
        task.action = None
        self.notify_lock_released(gcpu)
        return self._rw_release(action.lock.release_read(task))

    def do_release_write(self, gcpu, task, action):
        task.action = None
        self.notify_lock_released(gcpu)
        return self._rw_release(action.lock.release_write(task))

    def _rw_release(self, woken):
        for other in woken:
            other.action = None
            self.notify_grantee_lock(other)
            self.kernel.wake_task(other)
        return True

    # ------------------------------------------------------------------
    # Delay-preemption notifications (critical-section bracketing)
    # ------------------------------------------------------------------

    def notify_lock_acquired(self, gcpu):
        if self.kernel.delay_preempt is not None:
            self.kernel.delay_preempt.lock_acquired(gcpu.current)

    def notify_lock_released(self, gcpu):
        if self.kernel.delay_preempt is not None:
            self.kernel.delay_preempt.lock_released(gcpu.current)

    def notify_grantee_lock(self, grantee):
        """Lock ownership passed directly to a waiter: it is now in a
        critical section wherever it runs."""
        if self.kernel.delay_preempt is not None:
            self.kernel.delay_preempt.lock_acquired(grantee)

    # ------------------------------------------------------------------
    # Spin-grant mechanics
    # ------------------------------------------------------------------

    def actively_spinning(self, task):
        """Predicate for unfair spinlocks: is this spinner's pause loop
        actually executing right now?"""
        gcpu = task.gcpu
        return (gcpu is not None and gcpu.current is task and
                gcpu.run_started_at is not None)

    def grant_spin(self, grantee):
        """A spinner won a lock: stop the pause loop and continue."""
        grantee.spinning = False
        grantee.action = None
        gcpu = grantee.gcpu
        if gcpu.current is grantee and gcpu.run_started_at is not None:
            self.kernel.machine.notify_spin_stop(gcpu.vcpu)
            self.kernel.interp.run(gcpu)
        # Otherwise the grantee's vCPU is preempted: it now *holds* the
        # lock while frozen — lock-waiter turned lock-holder preemption.

    # ------------------------------------------------------------------
    # Barrier
    # ------------------------------------------------------------------

    def do_barrier(self, gcpu, task, action):
        status, released = action.barrier.wait(task)
        if status == sync.PASS:
            task.action = None
            for other in released:
                if action.barrier.mode == 'block':
                    other.action = None
                    self.kernel.wake_task(other)
                else:
                    self.grant_spin(other)
            return True
        if status == sync.WAIT:
            self.sim.trace.count('guest.block_waits')
            self.kernel._block_current(gcpu)
            return False
        # status == SPIN
        task.spinning = True
        self.kernel.machine.notify_spin_start(gcpu.vcpu)
        self.sim.trace.count('guest.spin_waits')
        return False

    # ------------------------------------------------------------------
    # Bounded queue
    # ------------------------------------------------------------------

    def do_queue_put(self, gcpu, task, action):
        status, consumer = action.queue.put(task, action.item)
        if status == sync.PASS:
            task.action = None
            if consumer is not None:
                consumer.action = None
                self.kernel.wake_task(consumer)
            return True
        self.kernel._block_current(gcpu)
        return False

    def do_queue_get(self, gcpu, task, action):
        status, item, producer = action.queue.get(task)
        if status == sync.PASS:
            task.action = None
            task.mailbox = item
            if producer is not None:
                producer.action = None
                self.kernel.wake_task(producer)
            return True
        self.kernel._block_current(gcpu)
        return False
