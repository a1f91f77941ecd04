"""Workload-action execution engine.

Interprets the zero-time ("one-shot") actions of a task's program —
everything except ``Compute``, which the kernel's run loop charges as
CPU time. Dispatch is a per-action-type handler table (one dict lookup
on the concrete class) instead of an isinstance chain: this sits on the
kernel's hottest path, and a program step costs the same no matter
which action it is or how many action types exist.

Handlers have the signature ``handler(gcpu, task, action) -> bool``;
True means the action was consumed and the task may keep executing,
False that the task blocked, spun, or otherwise lost the CPU.
Dispatch is on the exact class: an action type missing from the table,
including a subclass of one in it, raises ``TypeError``.
"""

from ..workloads import actions as act
from ..workloads.actions import Compute

# Safety valve: a program may chain zero-cost actions (lock ops),
# but an unbounded chain means a broken workload definition.
MAX_ZERO_TIME_ACTIONS = 100_000


def _livelock(task, guard):
    return RuntimeError('%s chained %d zero-time actions; add Compute steps'
                        % (task.name, guard))


class ActionInterpreter:
    """Table-dispatched executor for one-shot workload actions."""

    def __init__(self, kernel):
        self.kernel = kernel
        sync_engine = kernel.sync
        self._handlers = {
            act.Acquire: sync_engine.do_acquire,
            act.Release: sync_engine.do_release,
            act.BarrierWait: sync_engine.do_barrier,
            act.QueuePut: sync_engine.do_queue_put,
            act.QueueGet: sync_engine.do_queue_get,
            act.Sleep: self._do_sleep,
        }

    def run(self, gcpu):
        """Drive ``gcpu``'s current task until it computes, spins,
        blocks, exits, or loses the CPU."""
        kernel = self.kernel
        guard = 0
        while True:
            task = gcpu.current
            if task is None or gcpu.run_started_at is None:
                return
            if task.spinning:
                kernel.machine.notify_spin_start(gcpu.vcpu)
                return
            action = task.action
            if action is None:
                action = task.next_action(task.mailbox)
                task.mailbox = None
                if action is None:
                    kernel._exit_current(gcpu)
                    return
                task.action = action
                if isinstance(action, Compute):
                    task.remaining_ns = action.duration_ns
            if isinstance(action, Compute):
                if task.remaining_ns <= 0:
                    # A drained (or zero-length) segment is a zero-time
                    # step too: Compute(0) forever must hit the guard.
                    task.action = None
                    guard += 1
                    if guard > MAX_ZERO_TIME_ACTIONS:
                        raise _livelock(task, guard)
                    continue
                kernel.ticks.arm_quantum(gcpu)
                return
            guard += 1
            if guard > MAX_ZERO_TIME_ACTIONS:
                raise _livelock(task, guard)
            if not self.execute(gcpu, task, action):
                return
            if gcpu.current is not task:
                # A wakeup we triggered preempted us.
                return

    def execute(self, gcpu, task, action):
        """Run one one-shot action. Returns True when the task can
        continue executing (action consumed)."""
        handler = self._handlers.get(action.__class__)
        if handler is None:
            raise TypeError('unknown action %r' % (action,))
        return handler(gcpu, task, action)

    # ------------------------------------------------------------------
    # Non-sync one-shot actions
    # ------------------------------------------------------------------

    def _do_sleep(self, gcpu, task, action):
        # The sleep is complete once the timer fires; clear the
        # action now so the wakeup resumes at the next one.
        task.action = None
        self.kernel.timers.arm_sleep(task, action.duration_ns)
        self.kernel._block_current(gcpu)
        return False
