"""Delay-preemption baseline (Uhlig et al., discussed in Section 2.2).

The guest notifies the hypervisor while a thread holds a lock; the
hypervisor postpones involuntary preemptions of that vCPU for a bounded
window so critical sections drain before the vCPU is descheduled —
LHP avoidance by *prevention* instead of IRS's *reaction*.

The paper's critique, which this implementation lets you measure: the
hypervisor must repeatedly deviate from its scheduling policy, the
deferral budget caps how much it can help (long or nested critical
sections overrun it), and it does nothing for lock *waiters*.
"""

from ..obs.phases import PHASE_DP_DEFER
from ..simkernel.units import MS, US

DEFAULT_WINDOW_NS = 100 * US
DEFAULT_MAX_EXTENSION_NS = 1 * MS


class DelayedPreemption:
    """Per-machine manager of guest-requested no-preempt windows."""

    def __init__(self, sim, machine, window_ns=DEFAULT_WINDOW_NS,
                 max_extension_ns=DEFAULT_MAX_EXTENSION_NS):
        self.sim = sim
        self.machine = machine
        self.window_ns = window_ns
        self.max_extension_ns = max_extension_ns
        self._lock_depth = {}        # task -> nesting depth
        self._extension_used = {}    # vcpu -> ns deferred this dispatch
        self._retry = {}             # pcpu -> pending retry Event
        self.deferrals = 0
        self.budget_exhaustions = 0

    # ------------------------------------------------------------------
    # Guest notifications (paravirtual lock hooks)
    # ------------------------------------------------------------------

    def lock_acquired(self, task):
        """``task`` entered a critical section. The no-preempt hint
        follows the task, not the vCPU (it may be migrated while
        holding)."""
        self._lock_depth[task] = self._lock_depth.get(task, 0) + 1

    def lock_released(self, task):
        """``task`` left a critical section. When its last lock drops
        with a deferred preemption pending on its vCPU, the preemption
        fires immediately (the guest kept its side of the bargain)."""
        depth = self._lock_depth.get(task, 0)
        if depth <= 0:
            return
        if depth == 1:
            del self._lock_depth[task]
        else:
            self._lock_depth[task] = depth - 1
        gcpu = task.gcpu
        if depth == 1 and gcpu is not None and gcpu.current is task:
            vcpu = gcpu.vcpu
            pcpu = vcpu.pcpu
            retry = self._retry.pop(pcpu, None)
            if retry is not None:
                retry.cancel()
                self.sim.call_soon(self._retry_preempt, pcpu, vcpu)

    # ------------------------------------------------------------------
    # Scheduler hooks
    # ------------------------------------------------------------------

    def on_dispatch(self, vcpu):
        """A fresh dispatch resets the deferral budget."""
        self._extension_used[vcpu] = 0

    def try_defer(self, pcpu):
        """Called before an involuntary preemption. Returns True when
        the preemption was parked for one window."""
        vcpu = pcpu.current
        if vcpu is None or vcpu.gcpu is None:
            return False
        task = vcpu.gcpu.current
        if task is None or self._lock_depth.get(task, 0) <= 0:
            return False
        used = self._extension_used.get(vcpu, 0)
        if used + self.window_ns > self.max_extension_ns:
            self.budget_exhaustions += 1
            self.sim.trace.count('dp.budget_exhausted')
            return False
        if pcpu in self._retry:
            return True                      # already parked
        self._extension_used[vcpu] = used + self.window_ns
        self.deferrals += 1
        self.sim.trace.count('dp.deferrals')
        spans = self.sim.trace.spans
        if spans.enabled:
            spans.begin(self.sim.now, PHASE_DP_DEFER, vcpu.name,
                        task=task.name)
        self._retry[pcpu] = self.sim.after(self.window_ns,
                                           self._retry_preempt, pcpu, vcpu)
        return True

    def _retry_preempt(self, pcpu, vcpu):
        self._retry.pop(pcpu, None)
        spans = self.sim.trace.spans
        if spans.enabled:
            spans.end_phase(self.sim.now, PHASE_DP_DEFER, vcpu.name)
        if pcpu.current is not vcpu or not vcpu.is_running:
            return
        self.machine.scheduler.retry_preemption(pcpu)


def install_delayed_preemption(machine, kernels,
                               window_ns=DEFAULT_WINDOW_NS,
                               max_extension_ns=DEFAULT_MAX_EXTENSION_NS):
    """Enable delay-preemption for the given guests. Returns the
    manager. Mutually exclusive with IRS (both hook the preemption
    path)."""
    manager = DelayedPreemption(machine.sim, machine, window_ns=window_ns,
                                max_extension_ns=max_extension_ns)
    machine.delay_preempt = manager
    for kernel in kernels:
        kernel.delay_preempt = manager
    return manager
