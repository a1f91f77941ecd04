"""Pause-loop exiting (PLE) model.

PLE is the hardware spin detector the paper compares against (Section
5.1): when a vCPU executes PAUSE-heavy spin loops beyond a window, the
CPU traps into the hypervisor, which responds with a directed yield —
the spinning vCPU is descheduled in favour of a competitor.

In the simulator the guest reports spin phases (a spinning task *is* a
pause loop); each spinning vCPU has a window, due again after every
exit it survives, and the monitor yields the vCPU if the spin outlives
it. Crucially — and this is the paper's critique — PLE stops the
*waiter* from burning cycles but does nothing to schedule the *holder*
sooner, so LHP persists.

Most exits hand the pCPU straight back, and such an exit changes no
input of any exit's check and writes nothing that anyone reads before
the next other event. So each window is only the ``(time, seq)`` key
its timer event would have had, and the monitor's one event fires at
the first window after any other event, whose exit runs live while
every spinner is checked, and then at the first failing window, or
else the last window, before the next live event or the ``run_until``
end. There every earlier in-place exit is applied in closed form, each
as of its own instant and drawing the ``seq`` its re-arm would have
drawn, and then its own exit runs live (a failed one is the directed
yield, at its own key). Among windows at one instant, a key already
drawn comes first, then the spinners whose runs started later (their
later keys are drawn earlier), then by ``seq``. Outside ``run_until``
every window fires on its own.
"""

import math

from ..simkernel.units import US

DEFAULT_PLE_WINDOW_NS = 50 * US


class PleMonitor:
    """Per-machine PLE monitor: :attr:`windows` holds each spinning
    vCPU's next window key, and :attr:`event` fires at the windows that
    need it (see the module docstring)."""

    def __init__(self, sim, machine, window_ns=DEFAULT_PLE_WINDOW_NS):
        self.sim = sim
        self.machine = machine
        self.window_ns = window_ns
        # Spinning vCPU -> (time, seq) key of its next window not yet
        # applied.
        self.windows = {}
        # The monitor's one Event, and the vCPU whose window it fires at.
        self.event = None
        self._owner = None
        # True while the event's callback runs: spin starts and stops
        # then only update ``windows``, and the callback re-plans.
        self._firing = False

    def on_spin_start(self, vcpu):
        """The running task on ``vcpu`` entered a pause loop."""
        windows = self.windows
        if vcpu in windows:
            return
        sim = self.sim
        key = windows[vcpu] = (sim.now + self.window_ns, sim.reserve_seq())
        if not self._firing:
            event = self.event
            if event is None or event.seq <= 0 or key < (event.time,
                                                         event.seq):
                self._arm(vcpu, key)

    def on_spin_stop(self, vcpu):
        """The pause loop ended (lock acquired, or vCPU descheduled)."""
        if (self.windows.pop(vcpu, None) is not None
                and vcpu is self._owner and not self._firing):
            self._arm_first()

    def _arm(self, vcpu, key):
        event = self.event
        if event is not None:
            event.cancel()
        self.event = self.sim.rearm_at(event, key[0], key[1], self._fire)
        self._owner = vcpu

    def _arm_first(self):
        """Arm the event at the earliest window, or disarm it when no
        vCPU spins."""
        windows = self.windows
        if windows:
            vcpu = min(windows, key=windows.__getitem__)
            self._arm(vcpu, windows[vcpu])
        else:
            self._owner = None
            if self.event is not None:
                self.event.cancel()

    def _fire(self):
        sim = self.sim
        now = sim.now
        owner = self._owner
        windows = self.windows
        self._firing = True
        self._settle(now, owner)
        if owner.is_running:
            # VM-exit: the credit scheduler performs a directed yield. No
            # scheduler activation is sent — PLE and IRS are alternative
            # strategies and the exit is a hardware event, not a
            # scheduler preemption decision.
            sim.trace.count('ple.exits')
            scheduler = self.machine.scheduler
            if scheduler.can_yield_in_place(owner):
                scheduler.yield_in_place(owner, now)
                windows[owner] = (now + self.window_ns, sim.reserve_seq())
            else:
                # Its switch drops the window (on_spin_stop).
                scheduler.force_yield(owner)
        else:
            del windows[owner]
        self._firing = False
        self._plan()

    def _settle(self, time, owner):
        """Apply every in-place exit whose window comes before
        ``owner``'s window at ``time``, in closed form per spinner. The
        spinners draw their next keys (tick, then window) in the order
        of their last exits, as their window chains would have."""
        windows = self.windows
        period = self.window_ns
        owner_t0, owner_seq = windows[owner]
        owner_rank = (-owner_t0, owner_seq)
        runs = []
        for vcpu, (t0, seq) in windows.items():
            if t0 > time:
                continue
            exits = (time - t0) // period
            # A window at ``time`` itself comes first only if it ranks
            # first at that instant (see the module docstring).
            if vcpu is not owner and ((time - t0) % period
                                      or (-t0, seq) < owner_rank):
                exits += 1
            if exits:
                runs.append((t0 + (exits - 1) * period, -t0, seq, vcpu,
                             exits))
        if not runs:
            return
        runs.sort()
        sim = self.sim
        scheduler = self.machine.scheduler
        total = 0
        for last, __, __, vcpu, exits in runs:
            scheduler.yield_in_place(vcpu, last, exits, period)
            windows[vcpu] = (last + period, sim.reserve_seq())
            total += exits
        sim.trace.count('ple.exits', total)

    def _plan(self):
        """Arm the event after a firing. Inside ``run_until`` the bound
        is the next live event or the run's end: the first window before
        it whose check fails, else the last window before it, else (no
        window before it) the earliest window."""
        windows = self.windows
        sim = self.sim
        end = sim.run_end
        if end is None or not windows:
            self._arm_first()
            return
        bound = sim.peek_key()
        if bound is None or bound[0] > end:
            bound = (end, math.inf)
        bound_time = bound[0]
        period = self.window_ns
        scheduler = self.machine.scheduler
        exit_vcpu = exit_key = target = order = None
        for vcpu, key in windows.items():
            if key >= bound:
                continue
            if not (vcpu.is_running and scheduler.can_yield_in_place(vcpu)):
                if exit_key is None or key < exit_key:
                    exit_vcpu, exit_key = vcpu, key
                continue
            t0, seq = key
            last = t0 + (bound_time - t0) // period * period
            # A later window at the bound's instant draws its seq after
            # the bound's: it comes first only before a run's end.
            if last == bound_time and last != t0 and bound[1] != math.inf:
                last -= period
            rank = (last, -t0, seq)
            if order is None or rank > order:
                target, order = vcpu, rank
        if exit_vcpu is not None:
            self._arm(exit_vcpu, exit_key)
        elif target is not None:
            last = order[0]
            self._arm(target, windows[target] if last == -order[1]
                      else (last, sim.reserve_seq()))
        else:
            self._arm_first()
