"""Xen credit scheduler model.

Faithful to the behaviours the paper depends on:

* proportional-share **credits** refilled every 30 ms accounting period,
  debited 100 per 10 ms tick from the running vCPU;
* three priorities — ``BOOST`` (just woke from blocked), ``UNDER``
  (credits remaining), ``OVER`` (credits exhausted) — FIFO within each;
* a **30 ms time slice**: the origin of the "one more VM adds ~30 ms of
  scheduling delay" staircase in Figure 1(b) and of lock-holder
  preemption stalls;
* wake **boosting**, which is why I/O-ish vCPUs preempt CPU hogs quickly
  while an involuntarily preempted lock holder must wait a full slice;
* an optional **work-conserving steal path** used in unpinned mode (the
  CPU-stacking experiments of Section 5.6).

The single intrusive change IRS makes to the hypervisor (Section 4.1) is
modeled by :meth:`CreditScheduler._preempt_current`: before completing an
involuntary preemption it offers the event to the SA sender, which may
defer the context switch until the guest acknowledges.
"""

from ..obs.phases import PHASE_PREEMPT_FIRE
from ..simkernel.units import MS
from .vcpu import (
    PRI_BOOST,
    PRI_OVER,
    PRI_UNDER,
    RUNSTATE_BLOCKED,
    RUNSTATE_OFFLINE,
    RUNSTATE_RUNNABLE,
    RUNSTATE_RUNNING,
)


class CreditConfig:
    """Tunables of the credit scheduler (defaults match Xen 4.5)."""

    def __init__(self, tslice_ns=30 * MS, tick_ns=10 * MS,
                 accounting_ns=30 * MS, credits_per_tick=100,
                 credit_cap=300, boost_on_wake=True):
        self.tslice_ns = tslice_ns
        self.tick_ns = tick_ns
        self.accounting_ns = accounting_ns
        self.credits_per_tick = credits_per_tick
        self.credit_cap = credit_cap
        self.boost_on_wake = boost_on_wake


class CreditScheduler:
    """Per-pCPU runqueues with credit-based proportional sharing."""

    def __init__(self, sim, machine, config=None):
        self.sim = sim
        self.machine = machine
        self.config = config or CreditConfig()
        self.vcpus = []
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self):
        """Arm the periodic ticks and the accounting timer."""
        if self._started:
            return
        self._started = True
        cfg = self.config
        for pcpu in self.machine.pcpus:
            self.sim.after(cfg.tick_ns, self._tick, pcpu)
        self.sim.after(cfg.accounting_ns, self._accounting)

    def register_vcpu(self, vcpu, pcpu):
        """Bring a vCPU online, blocked, homed on ``pcpu``."""
        vcpu.pcpu = pcpu
        vcpu.credits = self.config.credit_cap
        vcpu.priority = PRI_UNDER
        vcpu.set_runstate(RUNSTATE_BLOCKED, self.sim.now)
        self.vcpus.append(vcpu)

    def deregister_vcpu(self, vcpu):
        """Take ``vcpu`` offline and forget it entirely (the live
        migration pause path). The caller must have resolved any
        outstanding SA offer first; a running vCPU's pCPU is
        backfilled so no queued work is stranded."""
        pcpu = vcpu.pcpu
        if vcpu.is_running:
            # Cancel a parked context switch: the vCPU is leaving the
            # host, so the deferred preemption resolves trivially.
            pcpu.preempt_deferred = False
            self._switch(pcpu, RUNSTATE_OFFLINE)
        elif vcpu.is_runnable:
            pcpu.remove_vcpu(vcpu)
            vcpu.set_runstate(RUNSTATE_OFFLINE, self.sim.now)
        else:
            vcpu.set_runstate(RUNSTATE_OFFLINE, self.sim.now)
        vcpu.pcpu = None
        vcpu.pinned_pcpu = None
        self.vcpus.remove(vcpu)

    # ------------------------------------------------------------------
    # Wake / block / yield
    # ------------------------------------------------------------------

    def wake(self, vcpu):
        """Blocked -> runnable. Applies wake boosting and tickles the
        target pCPU if the woken vCPU outranks the one running there."""
        if not vcpu.is_blocked:
            return
        now = self.sim.now
        vcpu.set_runstate(RUNSTATE_RUNNABLE, now)
        if vcpu.priority != PRI_OVER:
            # Xen: a waking vCPU at UNDER priority is boosted.
            if self.config.boost_on_wake:
                vcpu.priority = PRI_BOOST
            else:
                vcpu.priority = PRI_UNDER
        pcpu = self._placement_for(vcpu)
        if vcpu.priority == PRI_BOOST:
            pcpu.insert_vcpu_head(vcpu)
        else:
            pcpu.insert_vcpu(vcpu)
        self.sim.trace.count('hv.wakes')
        self._tickle(pcpu)

    def sched_op_block(self, vcpu):
        """Guest hypercall: the vCPU has nothing to run (idle)."""
        if vcpu.is_running:
            self._switch(vcpu.pcpu, RUNSTATE_BLOCKED)

    def sched_op_yield(self, vcpu):
        """Guest hypercall: yield the pCPU but stay runnable."""
        if vcpu.is_running:
            self._switch(vcpu.pcpu, RUNSTATE_RUNNABLE)

    def force_yield(self, vcpu):
        """Hypervisor-initiated directed yield (PLE / relaxed-co). Does
        NOT go through the SA path: these are strategy actions, not
        credit-scheduler preemptions."""
        if vcpu.is_running:
            self._switch(vcpu.pcpu, RUNSTATE_RUNNABLE)

    # ------------------------------------------------------------------
    # Periodic machinery
    # ------------------------------------------------------------------

    def _tick(self, pcpu):
        """10 ms tick: debit credits, drop BOOST, check the slice."""
        cfg = self.config
        self.sim.again(cfg.tick_ns)
        current = pcpu.current
        if current is not None:
            # Xen clips credits at -cap: a vCPU can overdraw at most
            # one accounting period's worth.
            current.credits = max(current.credits - cfg.credits_per_tick,
                                  -cfg.credit_cap)
            if current.priority == PRI_BOOST:
                current.priority = PRI_UNDER
            if current.credits <= 0:
                current.priority = PRI_OVER
            self._check_preempt_at_tick(pcpu)
        elif pcpu.runq:
            # An idle pCPU with queued work should never persist.
            self._schedule(pcpu)

    def _check_preempt_at_tick(self, pcpu):
        current = pcpu.current
        best = pcpu.peek_best()
        if best is None:
            return
        slice_expired = (self.sim.now - current.slice_start >=
                         self.config.tslice_ns)
        if best.priority < current.priority:
            self._preempt_current(pcpu)
        elif best.priority == current.priority and slice_expired:
            self._preempt_current(pcpu)
        elif current.priority == PRI_OVER and best.priority <= PRI_UNDER:
            self._preempt_current(pcpu)

    def _accounting(self):
        """30 ms accounting: refill credits proportional to VM weight,
        then run strategy hooks (relaxed co-scheduling)."""
        cfg = self.config
        self.sim.again(cfg.accounting_ns)
        active = [v for v in self.vcpus if not v.is_blocked]
        if active:
            total_weight = sum(v.vm.weight for v in active)
            # One accounting period's worth of credits per pCPU.
            pool = (cfg.credit_cap * len(self.machine.pcpus))
            for vcpu in active:
                share = pool * vcpu.vm.weight // total_weight
                vcpu.credits = min(vcpu.credits + share, cfg.credit_cap)
                if vcpu.credits > 0 and vcpu.priority == PRI_OVER:
                    vcpu.priority = PRI_UNDER
        # Idle vCPUs leave the active set: Xen resets their debt so a
        # later wake is boost-eligible again.
        for vcpu in self.vcpus:
            if vcpu.is_blocked:
                vcpu.credits = max(vcpu.credits, 0)
                if vcpu.priority == PRI_OVER:
                    vcpu.priority = PRI_UNDER
        if self.machine.relaxed_co is not None:
            self.machine.relaxed_co.on_accounting()
        if self.machine.hv_balancer is not None:
            self.machine.hv_balancer.periodic_rebalance()
        # Re-evaluate every pCPU: priorities may have changed.
        for pcpu in self.machine.pcpus:
            if pcpu.current is None and pcpu.runq:
                self._schedule(pcpu)
            elif pcpu.current is not None:
                best = pcpu.peek_best()
                if best is not None and best.priority < pcpu.current.priority:
                    self._preempt_current(pcpu)

    # ------------------------------------------------------------------
    # Preemption (the IRS hook point)
    # ------------------------------------------------------------------

    def _tickle(self, pcpu):
        """Re-evaluate ``pcpu`` after a wake landed on its runqueue."""
        current = pcpu.current
        if current is None:
            if not pcpu.preempt_deferred:
                self._schedule(pcpu)
            return
        best = pcpu.peek_best()
        if best is not None and best.priority < current.priority:
            self._preempt_current(pcpu)

    def _preempt_current(self, pcpu):
        """Involuntarily preempt the running vCPU. If IRS is active and
        the guest is capable, the context switch is deferred until the
        guest acknowledges the scheduler activation (Algorithm 1)."""
        if pcpu.preempt_deferred:
            return
        current = pcpu.current
        if current is None:
            self._schedule(pcpu)
            return
        delay = self.machine.delay_preempt
        if delay is not None and delay.try_defer(pcpu):
            return
        sender = self.machine.sa_sender
        if sender is not None and sender.offer_preemption(current):
            pcpu.preempt_deferred = True
            return
        self._switch(pcpu, RUNSTATE_RUNNABLE)

    def retry_preemption(self, pcpu):
        """Re-attempt a preemption parked by delay-preemption. Only
        proceeds if someone still outranks or co-ranks the current
        vCPU."""
        if pcpu.current is None:
            self._schedule(pcpu)
            return
        best = pcpu.peek_best()
        if best is not None and best.priority <= pcpu.current.priority:
            self._preempt_current(pcpu)

    def complete_deferred_preemption(self, vcpu, block):
        """Finish a preemption parked for SA processing. ``block`` is
        True when the guest answered ``SCHEDOP_block`` (no runnable task
        left on the vCPU), False for ``SCHEDOP_yield``."""
        pcpu = vcpu.pcpu
        if not (pcpu.preempt_deferred and pcpu.current is vcpu):
            raise RuntimeError('no deferred preemption outstanding on %s'
                               % vcpu.name)
        pcpu.preempt_deferred = False
        spans = self.sim.trace.spans
        if spans.enabled:
            spans.instant(self.sim.now, PHASE_PREEMPT_FIRE, vcpu.name,
                          block=block)
        self._switch(pcpu, RUNSTATE_BLOCKED if block else RUNSTATE_RUNNABLE)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _switch(self, pcpu, new_state):
        """Deschedule ``pcpu.current`` into ``new_state`` and dispatch
        the next vCPU. The pick comes first: a yielding vCPU that would
        win its own pCPU back keeps it, with no runqueue round trip,
        while its guest still sees the stop and the start."""
        prev = pcpu.current
        now = self.sim.now
        # Let the guest checkpoint the running task *before* the state
        # flips; it may consult the clock.
        if prev.vm.guest is not None:
            prev.vm.guest.vcpu_stopped_running(prev)
        if new_state == RUNSTATE_RUNNABLE:
            prev.preemptions += 1
            self.sim.trace.count('hv.preemptions')
        else:
            prev.set_runstate(new_state, now)
            pcpu.current = None
        # A descheduled vCPU stops any armed PLE window.
        ple = self.machine.ple
        if ple is not None:
            ple.on_spin_stop(prev)
        deferred = pcpu.preempt_deferred
        # A still-current prev is picked as if requeued, so it looks
        # resident on ``pcpu`` to the steal path.
        candidate = None if deferred else self._pick(pcpu)
        if candidate is not prev and pcpu.current is prev:
            prev.set_runstate(RUNSTATE_RUNNABLE, now)
            pcpu.current = None
            pcpu.insert_vcpu(prev)
        if not deferred:
            self._dispatch(pcpu, candidate)

    def can_yield_in_place(self, vcpu):
        """True when :meth:`_switch` would dispatch running ``vcpu``
        straight back from a directed yield and do nothing else, so
        :meth:`yield_in_place` may stand for it. False when the switch
        could do more: another vCPU is the pick, a steal path is
        installed, an SA preemption is parked, a vIRQ is pended, or the
        guest has more to do than resume a spinning task. No in-place
        exit changes any of these."""
        pcpu = vcpu.pcpu
        guest = vcpu.vm.guest
        return not (pcpu.preempt_deferred or vcpu.pending_virqs
                    or self.machine.hv_balancer is not None
                    or guest is None
                    or pcpu.peek_best(vcpu) is not vcpu
                    or not guest.spin_resumable(vcpu))

    def yield_in_place(self, vcpu, time, exits=1, period=0):
        """Resolve ``exits`` directed yields of running ``vcpu``, the
        last at ``time`` (at or before now) and each ``period`` after
        the one before, each as if :meth:`_switch` dispatched it
        straight back: the guest half (``resume_spinning``), then the
        preemption counts, the runstate charge, the new slice and the
        delay-preemption reset, as :meth:`_dispatch` does them. They
        sum, so k exits cost one call. The caller checked
        :meth:`can_yield_in_place`."""
        vcpu.vm.guest.resume_spinning(vcpu, time, exits, period)
        vcpu.preemptions += exits
        self.sim.trace.count('hv.preemptions', exits)
        vcpu.set_runstate(RUNSTATE_RUNNING, time)
        vcpu.slice_start = time
        delay = self.machine.delay_preempt
        if delay is not None:
            delay.on_dispatch(vcpu)

    def _schedule(self, pcpu):
        """Dispatch the best runnable vCPU on an idle ``pcpu``."""
        if pcpu.current is None and not pcpu.preempt_deferred:
            self._dispatch(pcpu, self._pick(pcpu))

    def _pick(self, pcpu):
        """The vCPU ``pcpu`` runs next: its best runnable one, counting
        a still-current vCPU as requeued, or a better one stolen from a
        peer in unpinned mode."""
        candidate = pcpu.peek_best(pcpu.current)
        if self.machine.hv_balancer is not None:
            candidate = self.machine.hv_balancer.maybe_steal(pcpu, candidate)
        return candidate

    def _dispatch(self, pcpu, vcpu):
        """Run ``vcpu`` on ``pcpu``, or idle ``pcpu`` when None. The
        current vCPU re-picked keeps its pCPU."""
        now = self.sim.now
        if vcpu is None:
            pcpu.mark_idle(now)
            return
        if vcpu is not pcpu.current:
            vcpu.pcpu.remove_vcpu(vcpu)
            vcpu.pcpu = pcpu
            pcpu.current = vcpu
            pcpu.mark_busy(now)
        vcpu.set_runstate(RUNSTATE_RUNNING, now)
        vcpu.slice_start = now
        # Delay-preemption bookkeeping, then the pended interrupts.
        machine = self.machine
        if machine.delay_preempt is not None:
            machine.delay_preempt.on_dispatch(vcpu)
        if vcpu.pending_virqs:
            machine.channels.drain_pending(vcpu)
        if vcpu.vm.guest is not None:
            vcpu.vm.guest.vcpu_started_running(vcpu)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def _placement_for(self, vcpu):
        """pCPU that should receive a waking vCPU."""
        if vcpu.pinned_pcpu is not None:
            return vcpu.pinned_pcpu
        if self.machine.hv_balancer is not None:
            return self.machine.hv_balancer.pick_pcpu_for_wake(vcpu)
        return vcpu.pcpu
