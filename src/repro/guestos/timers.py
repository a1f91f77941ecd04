"""Guest timer services.

:class:`TimerService` backs task sleeps with hypervisor one-shot timers
(a paravirtual guest programs the hypervisor's timer and gets an
event-channel kick), so a timer can wake a task whose VM has every vCPU
blocked. The wakeup then flows through the ordinary ``wake_task`` path,
including wake balancing.

:class:`TickDriver` owns the per-gCPU periodic machinery: the compute
quantum (the one-shot that fires when the current compute segment
drains), the scheduler tick (accounting, periodic balancing, CFS
preemption), and the NOHZ idle kick. Ticks freeze with the vCPU — when
the hypervisor deschedules it, the guest's timers simply stop, which is
the semantic gap IRS exists to bridge.
"""

from ..workloads.actions import Compute


class TimerService:
    """Arms one-shot wakeups for sleeping tasks."""

    def __init__(self, sim, kernel):
        self.sim = sim
        self.kernel = kernel
        self._armed = {}             # task -> Event

    def arm_sleep(self, task, duration_ns):
        """Wake ``task`` after ``duration_ns`` of simulated time."""
        if task in self._armed:
            raise RuntimeError('%s already has a timer armed' % task.name)
        self._armed[task] = self.sim.after(duration_ns, self._fire, task)

    def cancel(self, task):
        """Disarm a pending timer, if any."""
        event = self._armed.pop(task, None)
        if event is not None:
            event.cancel()

    def _fire(self, task):
        self._armed.pop(task, None)
        self.kernel.wake_task(task)

    @property
    def pending(self):
        """Number of armed timers."""
        return len(self._armed)


class TickDriver:
    """Quantum, scheduler-tick and NOHZ-kick machinery of one kernel."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.sim = kernel.sim
        # Bound once: the tick reads them on every firing.
        config = kernel.policy.config
        self.tick_ns = config.tick_ns
        self.balance_interval_ticks = config.balance_interval_ticks

    # ------------------------------------------------------------------
    # Compute quantum (fires when the running segment drains)
    # ------------------------------------------------------------------

    def arm_quantum(self, gcpu):
        # Re-arms the handle _on_quantum fired; a pending one is
        # cancelled first, and rearm() re-keys it (or replaces it, if
        # the new segment ends earlier).
        event = gcpu.quantum_event
        if event is not None:
            event.cancel()
        gcpu.quantum_event = self.sim.rearm(
            event, gcpu.current.remaining_ns, self._on_quantum, gcpu)

    def cancel_quantum(self, gcpu):
        if gcpu.quantum_event is not None:
            gcpu.quantum_event.cancel()

    def _on_quantum(self, gcpu):
        if gcpu.run_started_at is None or not gcpu.vcpu.is_running:
            return
        kernel = self.kernel
        kernel._checkpoint(gcpu, self.sim.now)
        task = gcpu.current
        if task is not None and isinstance(task.action, Compute) \
                and task.remaining_ns <= 0:
            task.action = None
        kernel.interp.run(gcpu)

    # ------------------------------------------------------------------
    # Scheduler tick
    # ------------------------------------------------------------------

    def arm_tick(self, gcpu):
        event = gcpu.tick_event
        if event is None or event.seq <= 0:
            gcpu.tick_event = self.sim.rearm(
                event, self.tick_ns, self._on_tick, gcpu)

    def rearm_tick_at(self, gcpu, start):
        """Cancel the tick and re-arm it one period after ``start`` (at
        or before now), with the next ``seq``: what a cancel and
        :meth:`arm_tick` at ``start`` would leave."""
        event = gcpu.tick_event
        if event is not None:
            event.cancel()
        gcpu.tick_event = self.sim.rearm(
            event, start + self.tick_ns - self.sim.now,
            self._on_tick, gcpu)

    def cancel_tick(self, gcpu):
        if gcpu.tick_event is not None:
            gcpu.tick_event.cancel()

    def _on_tick(self, gcpu):
        """Guest timer tick: accounting, balancing, CFS preemption."""
        if not gcpu.vcpu.is_running or gcpu.in_sa_handler:
            return
        sim = self.sim
        gcpu.tick_count += 1
        # arm_tick() inlined: gcpu.tick_event is the handle firing now.
        sim.again(self.tick_ns)
        gcpu.rt.update()
        task = gcpu.current
        if task is None:
            return
        kernel = self.kernel
        kernel._checkpoint(gcpu, sim.now)
        rq = gcpu.rq
        if gcpu.tick_count % self.balance_interval_ticks == 0:
            kernel.balancer.periodic_balance(gcpu, sim.now)
            if rq._entries:
                self.nohz_kick(gcpu)
        # Mirrors the empty-queue early return of
        # CfsPolicy.should_resched_at_tick: no ready task, no resched.
        if gcpu.current is task and rq._entries \
                and kernel.policy.should_resched_at_tick(task, rq):
            kernel._preempt_current(gcpu)

    def nohz_kick(self, busy_gcpu):
        """NOHZ idle balancing: a busy CPU with queued work kicks one
        guest-idle sibling so it can wake up and pull (Linux's
        ``nohz_balancer_kick``). Without this, a vCPU idled by an IRS
        evacuation — or by ordinary blocking — would never reclaim
        work, because idle CPUs take no ticks."""
        kernel = self.kernel
        for gcpu in kernel.gcpus:
            if gcpu is busy_gcpu:
                continue
            if not gcpu.is_guest_idle:
                continue
            if gcpu.vcpu.is_blocked:
                self.sim.trace.count('guest.nohz_kicks')
                kernel.machine.wake_vcpu(gcpu.vcpu)
                return
