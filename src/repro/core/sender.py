"""SA sender — the hypervisor half of IRS (Algorithm 1, top).

Sits on the credit scheduler's preemption path. When an involuntary
preemption targets a running, still-runnable vCPU of an IRS-capable
guest with no activation already pending, the sender:

1. sets the per-vCPU ``sa_pending`` flag,
2. delivers ``VIRQ_SA_UPCALL`` over the event channel,
3. lets the vCPU keep the pCPU until the guest acknowledges via
   ``HYPERVISOR_sched_op`` (the scheduler parks the context switch),
4. arms a hard-limit timeout so a rogue or wedged guest cannot hold the
   pCPU hostage (Section 4.1).

Graceful degradation (``IRSConfig.degradation_enabled``): when the
notification channel is unreliable — upcalls lost, acks swallowed — the
timeout no longer silently wastes the grace window every slice. An
exhausted offer is first *retried* (the upcall is re-sent with
exponential backoff, still bounded), and a per-VM
:class:`SaHealthWatchdog` tracks consecutive failures; past a threshold
the sender stops offering activations to that VM entirely — vanilla
preemption, the behaviour IRS gracefully degrades *to* — and re-arms
after a backoff period so a recovered channel wins the protocol back.
"""

from ..hypervisor.channels import VIRQ_SA_UPCALL
from ..obs.phases import PHASE_ACK, PHASE_OFFER, PHASE_VIRQ
from .config import IRSConfig
from .protocol import ensure_protocol


class SaHealthWatchdog:
    """Per-VM health of the SA notification channel.

    Consecutive exhausted offers (all retries timed out) trip the VM
    into a *degraded* window during which :meth:`allow` is False and
    preemptions proceed vanilla-style. The window re-arms
    automatically: after ``sa_health_backoff_ns`` the next offer is
    allowed through as a probe, and one acknowledged activation resets
    the failure count entirely.
    """

    def __init__(self, sim, config):
        self.sim = sim
        self.config = config
        self._failures = {}        # vm -> consecutive exhausted offers
        self._degraded_until = {}  # vm -> time the fallback window ends
        self.fallbacks = 0         # degraded windows opened
        self.rearms = 0            # windows that expired (channel retried)

    def allow(self, vm):
        """May the sender offer an activation to ``vm`` right now?"""
        until = self._degraded_until.get(vm)
        if until is None:
            return True
        if self.sim.now >= until:
            # Window over: re-arm, let the next offer probe the channel.
            del self._degraded_until[vm]
            self.rearms += 1
            self.sim.trace.count('irs.sa_health_rearms')
            return True
        return False

    def record_success(self, vm):
        self._failures[vm] = 0

    def record_failure(self, vm):
        count = self._failures.get(vm, 0) + 1
        self._failures[vm] = count
        if count >= self.config.sa_health_threshold:
            self._failures[vm] = 0
            self._degraded_until[vm] = (self.sim.now +
                                        self.config.sa_health_backoff_ns)
            self.fallbacks += 1
            self.sim.trace.count('irs.sa_health_fallbacks')


class SaSender:
    """Hypervisor-side scheduler-activation emitter."""

    def __init__(self, sim, machine, config=None):
        self.sim = sim
        self.machine = machine
        self.config = config or IRSConfig()
        self.health = SaHealthWatchdog(sim, self.config)
        self._timeouts = {}          # vcpu -> Event
        self._offer_times = {}       # vcpu -> offer timestamp
        self._attempts = {}          # vcpu -> re-sends for current offer
        self.sent = 0
        self.timed_out = 0
        self.retried = 0
        self.suppressed = 0          # offers skipped while degraded
        self.duplicate_acks = 0
        # Observed preemption-delay samples (offer -> acknowledgement),
        # the Section 3.1 "20-26 us" profile.
        self.delay_samples_ns = []

    def offer_preemption(self, vcpu):
        """Called by the credit scheduler before an involuntary
        preemption. Returns True if the preemption is deferred pending
        guest acknowledgement."""
        if not vcpu.vm.irs_capable:
            return False
        if vcpu.sa_pending:
            return False
        if not vcpu.is_running:
            return False
        gcpu = vcpu.gcpu
        if gcpu is None or gcpu.in_sa_handler:
            return False
        if gcpu.current is None:
            # Nothing to migrate; a plain preemption costs nothing.
            return False
        if self.config.degradation_enabled and not self.health.allow(vcpu.vm):
            # Watchdog says the SA channel is unhealthy: degrade to a
            # vanilla preemption instead of burning the grace window.
            self.suppressed += 1
            self.sim.trace.count('irs.sa_suppressed')
            return False
        ensure_protocol(vcpu).offer()
        vcpu.sa_pending = True
        self.sent += 1
        vcpu.sa_offers += 1
        self._offer_times[vcpu] = self.sim.now
        self.sim.trace.count('irs.sa_sent')
        spans = self.sim.trace.spans
        if spans.enabled:
            # Span probes: the offer covers the whole offer->ack chain;
            # the vIRQ leg closes when the guest handler picks it up.
            spans.begin(self.sim.now, PHASE_OFFER, vcpu.name,
                        vm=vcpu.vm.name)
            spans.begin(self.sim.now, PHASE_VIRQ, vcpu.name)
        self._timeouts[vcpu] = self.sim.after(
            self.config.sa_hard_limit_ns, self._hard_limit, vcpu)
        self.machine.channels.send_virq(vcpu, VIRQ_SA_UPCALL)
        return True

    def acknowledge(self, vcpu):
        """Guest acknowledged: clear the pending flag so the next round
        of SA can fire (Algorithm 1 line 16). A duplicate ack (no offer
        outstanding) is counted and otherwise ignored."""
        if not vcpu.sa_pending and vcpu not in self._timeouts:
            self.duplicate_acks += 1
            self.sim.trace.count('irs.sa_dup_acks')
            return
        if vcpu.sa_protocol is not None:
            vcpu.sa_protocol.ack()
        vcpu.sa_pending = False
        self._attempts.pop(vcpu, None)
        offered_at = self._offer_times.pop(vcpu, None)
        if offered_at is not None:
            self.delay_samples_ns.append(self.sim.now - offered_at)
        timeout = self._timeouts.pop(vcpu, None)
        if timeout is not None:
            timeout.cancel()
        spans = self.sim.trace.spans
        if spans.enabled:
            spans.end_phase(self.sim.now, PHASE_ACK, vcpu.name)
            spans.end_phase(self.sim.now, PHASE_OFFER, vcpu.name,
                            outcome='acked')
        self.health.record_success(vcpu.vm)

    def cancel_offer(self, vcpu):
        """Withdraw an outstanding offer without recording an outcome
        (live-migration pause: the vCPU is leaving the host, so the
        protocol round is void — no delay sample, no health verdict)."""
        timeout = self._timeouts.pop(vcpu, None)
        if timeout is not None:
            timeout.cancel()
        had_offer = self._offer_times.pop(vcpu, None) is not None
        self._attempts.pop(vcpu, None)
        if vcpu.sa_protocol is not None:
            vcpu.sa_protocol.cancel()
        vcpu.sa_pending = False
        spans = self.sim.trace.spans
        if had_offer and spans.enabled:
            spans.end_phase(self.sim.now, PHASE_OFFER, vcpu.name,
                            outcome='cancelled')

    def _hard_limit(self, vcpu):
        """The guest never answered within the grace window: retry the
        upcall (degradation path) or force the preemption through."""
        self._timeouts.pop(vcpu, None)
        if not vcpu.sa_pending:
            self._offer_times.pop(vcpu, None)
            self._attempts.pop(vcpu, None)
            return
        pcpu = vcpu.pcpu
        deferred = pcpu.preempt_deferred and pcpu.current is vcpu
        attempts = self._attempts.get(vcpu, 0)
        if (self.config.degradation_enabled and deferred
                and attempts < self.config.sa_ack_retries):
            # Retry-with-backoff: the upcall (or its ack) may have been
            # lost; re-send and extend the window exponentially.
            if vcpu.sa_protocol is not None:
                vcpu.sa_protocol.retry()
            self._attempts[vcpu] = attempts + 1
            self.retried += 1
            self.sim.trace.count('irs.sa_retries')
            backoff = self.config.sa_retry_backoff_ns << attempts
            spans = self.sim.trace.spans
            if spans.enabled:
                spans.begin(self.sim.now, PHASE_VIRQ, vcpu.name,
                            retry=attempts + 1)
            self._timeouts[vcpu] = self.sim.after(
                backoff, self._hard_limit, vcpu)
            self.machine.channels.send_virq(vcpu, VIRQ_SA_UPCALL)
            return
        self._offer_times.pop(vcpu, None)
        self._attempts.pop(vcpu, None)
        if vcpu.sa_protocol is not None:
            vcpu.sa_protocol.timeout()
        vcpu.sa_pending = False
        self.timed_out += 1
        self.sim.trace.count('irs.sa_timeouts')
        spans = self.sim.trace.spans
        if spans.enabled:
            # Closing the offer also closes any legs still open under
            # it (undelivered vIRQ, interrupted upcall, lost ack).
            spans.end_phase(self.sim.now, PHASE_OFFER, vcpu.name,
                            outcome='timeout')
        if self.config.degradation_enabled:
            self.health.record_failure(vcpu.vm)
        if deferred:
            if vcpu.gcpu is not None:
                vcpu.gcpu.in_sa_handler = False
            self.machine.scheduler.complete_deferred_preemption(
                vcpu, block=False)
