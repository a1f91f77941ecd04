"""The hypercall surface the guest kernel uses.

Three calls matter to IRS (Section 4):

* ``HYPERVISOR_sched_op(SCHEDOP_block)`` — the vCPU has nothing to run;
* ``HYPERVISOR_sched_op(SCHEDOP_yield)`` — yield but remain runnable;
* ``HYPERVISOR_vcpu_op(VCPUOP_get_runstate_info)`` — the migrator's
  probe for the *actual* vCPU runstate (Algorithm 2, line 7), which is
  what lets the guest skip preempted-but-"online" vCPUs.

When a ``sched_op`` arrives while a preemption is parked for SA
processing, it is the guest's acknowledgement (Algorithm 1 line 15) and
completes the deferred context switch.
"""

from .vcpu import RUNSTATE_RUNNABLE, RUNSTATE_RUNNING

SCHEDOP_BLOCK = 'SCHEDOP_block'
SCHEDOP_YIELD = 'SCHEDOP_yield'


class HypercallInterface:
    """Facade over the scheduler, handed to guest kernels."""

    def __init__(self, machine):
        self._machine = machine

    def sched_op(self, vcpu, operation):
        """``HYPERVISOR_sched_op``: block or yield the calling vCPU."""
        scheduler = self._machine.scheduler
        pcpu = vcpu.pcpu
        if pcpu.preempt_deferred and pcpu.current is vcpu:
            # SA acknowledgement path: clear the pending flag and let
            # the parked preemption complete with the requested state.
            injector = self._machine.fault_injector
            if injector is not None and injector.sa_ack_lost(vcpu):
                # Injected fault: the ack never reaches the hypervisor.
                # The sender's grace-window timeout will fire instead.
                return
            if self._machine.sa_sender is not None:
                self._machine.sa_sender.acknowledge(vcpu)
            scheduler.complete_deferred_preemption(
                vcpu, block=(operation == SCHEDOP_BLOCK))
            return
        if operation == SCHEDOP_BLOCK:
            scheduler.sched_op_block(vcpu)
        elif operation == SCHEDOP_YIELD:
            scheduler.sched_op_yield(vcpu)
        else:
            raise ValueError('unknown sched_op %r' % operation)

    def vcpu_op_get_runstate(self, vcpu):
        """``HYPERVISOR_vcpu_op(VCPUOP_get_runstate_info)``: the true
        runstate of ``vcpu`` — 'running', 'runnable' or 'blocked'.

        With a fault injector attached the probe may return a stale
        observation or raise
        :class:`~repro.faults.injector.HypercallFaultError`."""
        injector = self._machine.fault_injector
        if injector is not None:
            return injector.on_runstate_probe(vcpu, vcpu.runstate)
        return vcpu.runstate

    def vcpu_is_preempted(self, vcpu):
        """Convenience predicate: runnable-but-not-running."""
        return vcpu.runstate == RUNSTATE_RUNNABLE

    def vcpu_is_running(self, vcpu):
        return vcpu.runstate == RUNSTATE_RUNNING

    def steal_time(self, vcpu):
        """Paravirtual steal-time counter for the guest's ``rt_avg``."""
        __, steal, __ = vcpu.snapshot_accounting(self._machine.sim.now)
        return steal
