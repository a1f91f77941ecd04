"""The physical machine: pCPUs, VMs, scheduler, and strategy wiring.

A :class:`Machine` is the root object of the hypervisor substrate. The
scheduling *strategy* — vanilla credit, PLE, relaxed co-scheduling, or
IRS — is selected by which optional components are attached:

* ``sa_sender`` — the IRS scheduler-activation sender (``repro.core``);
* ``ple`` — the pause-loop-exiting monitor;
* ``relaxed_co`` — the relaxed co-scheduling monitor;
* ``hv_balancer`` — the VM-oblivious vCPU balancer (unpinned mode).
"""

from .balance_sched import BalanceScheduler
from .balancer import HypervisorBalancer
from .channels import EventChannels
from .credit import CreditConfig, CreditScheduler
from .delayed_preempt import DelayedPreemption
from .hypercalls import HypercallInterface
from .pcpu import PCpu
from .ple import PleMonitor
from .relaxed_co import RelaxedCoScheduler


class StrategyDescriptor:
    """Declarative description of a machine's strategy attachments.

    One value object covers every optional component a host can carry,
    so cluster hosts (``repro.cluster``) and the experiment layer can
    compose strategies without per-strategy call sites. ``None`` for a
    window/threshold means the component's default."""

    def __init__(self, ple=False, ple_window_ns=None,
                 relaxed_co=False, relaxed_co_skew_ns=None,
                 unpinned=False, balance_sched=False,
                 delay_preempt=False, dp_window_ns=None,
                 dp_max_extension_ns=None,
                 sa_sender=None, fault_injector=None):
        self.ple = ple
        self.ple_window_ns = ple_window_ns
        self.relaxed_co = relaxed_co
        self.relaxed_co_skew_ns = relaxed_co_skew_ns
        self.unpinned = unpinned
        self.balance_sched = balance_sched
        self.delay_preempt = delay_preempt
        self.dp_window_ns = dp_window_ns
        self.dp_max_extension_ns = dp_max_extension_ns
        self.sa_sender = sa_sender
        self.fault_injector = fault_injector

    def __repr__(self):
        parts = []
        if self.ple:
            parts.append('ple')
        if self.relaxed_co:
            parts.append('relaxed_co')
        if self.unpinned:
            parts.append('unpinned')
        if self.balance_sched:
            parts.append('balance_sched')
        if self.delay_preempt:
            parts.append('delay_preempt')
        if self.sa_sender is not None:
            parts.append('sa_sender')
        if self.fault_injector is not None:
            parts.append('faults')
        return '<StrategyDescriptor %s>' % (' '.join(parts) or 'vanilla')


class Machine:
    """A host: pCPUs + credit scheduler + attached VMs + strategies."""

    def __init__(self, sim, n_pcpus, credit_config=None):
        if n_pcpus < 1:
            raise ValueError('need at least one pCPU')
        self.sim = sim
        self.pcpus = [PCpu(i) for i in range(n_pcpus)]
        self.scheduler = CreditScheduler(sim, self,
                                         credit_config or CreditConfig())
        self.channels = EventChannels(sim, machine=self)
        self.hypercalls = HypercallInterface(self)
        self.vms = []

        # Strategy slots (None = vanilla behaviour).
        self.sa_sender = None
        self.ple = None
        self.relaxed_co = None
        self.hv_balancer = None
        self.delay_preempt = None
        # Deterministic fault-injection plane (repro.faults); None means
        # every notification / probe / migration path is reliable.
        self.fault_injector = None

        if sim.sanitizer is not None:
            sim.sanitizer.attach_machine(self)

    # ------------------------------------------------------------------
    # Strategy wiring
    # ------------------------------------------------------------------

    def attach_strategies(self, descriptor):
        """Declarative strategy wiring: attach every component named by
        a :class:`StrategyDescriptor` in one call. The single entry
        point cluster hosts configure themselves through; the legacy
        ``enable_*`` methods below are shims over this."""
        if descriptor.ple:
            if descriptor.ple_window_ns is None:
                self.ple = PleMonitor(self.sim, self)
            else:
                self.ple = PleMonitor(self.sim, self,
                                      window_ns=descriptor.ple_window_ns)
        if descriptor.relaxed_co:
            if descriptor.relaxed_co_skew_ns is None:
                self.relaxed_co = RelaxedCoScheduler(self.sim, self)
            else:
                self.relaxed_co = RelaxedCoScheduler(
                    self.sim, self,
                    skew_threshold_ns=descriptor.relaxed_co_skew_ns)
        if descriptor.unpinned or descriptor.balance_sched:
            if self.hv_balancer is None:
                self.hv_balancer = HypervisorBalancer(self)
        if descriptor.balance_sched:
            if not isinstance(self.hv_balancer, BalanceScheduler):
                self.hv_balancer = BalanceScheduler(self, self.hv_balancer)
        if descriptor.delay_preempt:
            kwargs = {}
            if descriptor.dp_window_ns is not None:
                kwargs['window_ns'] = descriptor.dp_window_ns
            if descriptor.dp_max_extension_ns is not None:
                kwargs['max_extension_ns'] = descriptor.dp_max_extension_ns
            self.attach_delay_preempt(
                DelayedPreemption(self.sim, self, **kwargs))
        if descriptor.sa_sender is not None:
            self.sa_sender = descriptor.sa_sender
        if descriptor.fault_injector is not None:
            self.fault_injector = descriptor.fault_injector
        return self

    def attach_delay_preempt(self, manager):
        """Attach the delayed-preemption manager (the hypervisor half;
        guests opt in via ``GuestKernel.attach_delay_preempt``)."""
        self.delay_preempt = manager
        return manager

    def enable_unpinned_balancing(self):
        """Attach the hypervisor vCPU balancer (vCPUs float freely)."""
        self.attach_strategies(StrategyDescriptor(unpinned=True))
        return self.hv_balancer

    def attach_sa_sender(self, sender):
        """Attach the IRS scheduler-activation sender."""
        self.attach_strategies(StrategyDescriptor(sa_sender=sender))

    def attach_fault_injector(self, injector):
        """Attach a deterministic fault injector (``repro.faults``)."""
        self.attach_strategies(StrategyDescriptor(fault_injector=injector))

    # ------------------------------------------------------------------
    # VM lifecycle
    # ------------------------------------------------------------------

    def add_vm(self, vm, pinning=None):
        """Register ``vm``. ``pinning`` maps each vCPU to a pCPU index;
        None leaves the vCPUs floating (requires the balancer for
        sensible placement)."""
        if pinning is not None and len(pinning) != vm.n_vcpus:
            raise ValueError('pinning must name one pCPU per vCPU')
        self.vms.append(vm)
        for i, vcpu in enumerate(vm.vcpus):
            if pinning is not None:
                pcpu = self.pcpus[pinning[i]]
                vcpu.pinned_pcpu = pcpu
            else:
                pcpu = self.pcpus[i % len(self.pcpus)]
            self.scheduler.register_vcpu(vcpu, pcpu)

    def detach_vm(self, vm):
        """Pull ``vm`` off this host (live-migration pause). Every vCPU
        goes OFFLINE — immune to wakes, invisible to the scheduler — and
        outstanding SA offers and pended upcalls are torn down with the
        event channel. The VM belongs to *no* host until adopted."""
        if vm not in self.vms:
            raise ValueError('%s is not resident on this machine' % vm.name)
        for vcpu in vm.vcpus:
            if self.sa_sender is not None:
                self.sa_sender.cancel_offer(vcpu)
            if vcpu.gcpu is not None:
                vcpu.gcpu.in_sa_handler = False
            if self.ple is not None:
                self.ple.on_spin_stop(vcpu)
            if self.relaxed_co is not None:
                self.relaxed_co.costopped.pop(vcpu, None)
            vcpu.costopped = False
            # Event-channel teardown: pended vIRQs do not survive the
            # move (the target host has its own channels).
            vcpu.pending_virqs = []
            self.scheduler.deregister_vcpu(vcpu)
        self.vms.remove(vm)

    def adopt_vm(self, vm, pinning=None):
        """Accept a detached VM (live-migration resume). Same placement
        contract as :meth:`add_vm`; vCPUs come back blocked and must be
        woken by the migration engine."""
        for vcpu in vm.vcpus:
            if vcpu.pcpu is not None:
                raise ValueError('%s still registered with a scheduler'
                                 % vcpu.name)
        self.add_vm(vm, pinning=pinning)

    def start(self):
        """Arm the scheduler's periodic machinery."""
        self.scheduler.start()

    # ------------------------------------------------------------------
    # Guest-visible services
    # ------------------------------------------------------------------

    def notify_spin_start(self, vcpu):
        """Guest report: the current task on ``vcpu`` is pause-looping.
        Only meaningful when PLE is enabled (HVM)."""
        if self.ple is not None and vcpu.is_running:
            self.ple.on_spin_start(vcpu)

    def notify_spin_stop(self, vcpu):
        """Guest report: the pause loop on ``vcpu`` ended."""
        if self.ple is not None:
            self.ple.on_spin_stop(vcpu)

    def wake_vcpu(self, vcpu):
        """Kick a blocked vCPU (guest enqueued work for it)."""
        self.scheduler.wake(vcpu)

    def fair_share_ns(self, vm, elapsed_ns):
        """CPU time ``vm`` is entitled to over ``elapsed_ns``: its
        weight share of the pCPUs its vCPUs compete for."""
        total_capacity = elapsed_ns * len(self.pcpus)
        total_weight = sum(m.weight * m.n_vcpus for m in self.vms)
        if total_weight == 0:
            return 0
        share = total_capacity * (vm.weight * vm.n_vcpus) / total_weight
        # A VM can never use more than one pCPU per vCPU.
        return min(share, elapsed_ns * vm.n_vcpus)
