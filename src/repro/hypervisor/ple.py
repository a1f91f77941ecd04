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
    """Per-machine PLE monitor; each spinning vCPU holds its armed
    window in ``VCpu.ple_window``."""

    def __init__(self, sim, machine, window_ns=DEFAULT_PLE_WINDOW_NS):
        self.sim = sim
        self.machine = machine
        self.window_ns = window_ns

    def on_spin_start(self, vcpu):
        """The running task on ``vcpu`` entered a pause loop."""
        event = vcpu.ple_window
        if event is not None and event.seq > 0:
            return
        vcpu.ple_window = self.sim.rearm(
            event, self.window_ns, self._window_expired, vcpu)

    def on_spin_stop(self, vcpu):
        """The pause loop ended (lock acquired, or vCPU descheduled)."""
        if vcpu.ple_window is not None:
            vcpu.ple_window.cancel()

    def _window_expired(self, vcpu):
        if not vcpu.is_running:
            return
        # VM-exit: the credit scheduler performs a directed yield. No
        # scheduler activation is sent — PLE and IRS are alternative
        # strategies and the exit is a hardware event, not a scheduler
        # preemption decision.
        self.sim.trace.count('ple.exits')
        scheduler = self.machine.scheduler
        if scheduler.yield_in_place(vcpu):
            # The spin goes on: re-arm this window, as on_spin_start
            # would after a full switch.
            self.sim.again(self.window_ns)
        else:
            scheduler.force_yield(vcpu)
