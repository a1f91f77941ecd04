"""Pause-loop exiting (PLE) model.

PLE is the hardware spin detector the paper compares against (Section
5.1): when a vCPU executes PAUSE-heavy spin loops beyond a window, the
CPU traps into the hypervisor, which responds with a directed yield —
the spinning vCPU is descheduled in favour of a competitor.

In the simulator the guest reports spin phases (a spinning task *is* a
pause loop); the monitor arms a timer per spinning vCPU and yields the
vCPU if the spin outlives the window. Crucially — and this is the
paper's critique — PLE stops the *waiter* from burning cycles but does
nothing to schedule the *holder* sooner, so LHP persists.
"""

from ..simkernel.units import US

DEFAULT_PLE_WINDOW_NS = 50 * US


class PleMonitor:
    """Per-machine PLE state: one armed window per spinning vCPU."""

    def __init__(self, sim, machine, window_ns=DEFAULT_PLE_WINDOW_NS):
        self.sim = sim
        self.machine = machine
        self.window_ns = window_ns
        # vcpu -> its window's Event: armed while pending, otherwise
        # the fired (re-armable) or cancelled handle of the last window.
        self._windows = {}

    def on_spin_start(self, vcpu):
        """The running task on ``vcpu`` entered a pause loop."""
        event = self._windows.get(vcpu)
        if event is not None and not (event.fired or event.cancelled):
            return
        self._windows[vcpu] = self.sim.rearm(
            event, self.window_ns, self._window_expired, vcpu)

    def on_spin_stop(self, vcpu):
        """The pause loop ended (lock acquired, or vCPU descheduled)."""
        event = self._windows.get(vcpu)
        if event is not None:
            event.cancel()

    def _window_expired(self, vcpu):
        if not vcpu.is_running:
            return
        # VM-exit: the credit scheduler performs a directed yield. No
        # scheduler activation is sent — PLE and IRS are alternative
        # strategies and the exit is a hardware event, not a scheduler
        # preemption decision.
        self.sim.trace.count('ple.exits')
        self.machine.scheduler.force_yield(vcpu)
