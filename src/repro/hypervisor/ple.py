"""Pause-loop exiting (PLE) model.

PLE is the hardware spin detector the paper compares against (Section
5.1): when a vCPU executes PAUSE-heavy spin loops beyond a window, the
CPU traps into the hypervisor, which responds with a directed yield —
the spinning vCPU is descheduled in favour of a competitor.

In the simulator the guest reports spin phases (a spinning task *is* a
pause loop); each spinning vCPU has a window, due again after every
exit it survives, and the exit yields the vCPU if the spin outlives it.
Crucially — and this is the paper's critique — PLE stops the *waiter*
from burning cycles but does nothing to schedule the *holder* sooner,
so LHP persists.

Each window is a key of the machine's keyed timer
(``Machine.guest_ticks``, ``repro.guestos.timers``), which runs the
exits: one that hands the pCPU straight back is applied in closed form
with the guest ticks around it, and any other is the directed yield
(``CreditScheduler.force_yield``), live at its own key.
"""

from ..simkernel.units import US

DEFAULT_PLE_WINDOW_NS = 50 * US


class PleMonitor:
    """Per-machine PLE monitor: reports spin phases to the machine's
    keyed timer as windows of :attr:`window_ns`."""

    def __init__(self, sim, machine, window_ns=DEFAULT_PLE_WINDOW_NS):
        self.sim = sim
        self.machine = machine
        self.window_ns = window_ns

    def on_spin_start(self, vcpu):
        """The running task on ``vcpu`` entered a pause loop."""
        self.machine.guest_ticks.start_window(vcpu, self.window_ns)

    def on_spin_stop(self, vcpu):
        """The pause loop ended (lock acquired, or vCPU descheduled)."""
        timer = self.machine.guest_ticks
        # Every switch calls this. A machine whose VMs run no guest
        # kernel has no timer.
        if timer is not None and timer.windows:
            timer.stop_window(vcpu)
