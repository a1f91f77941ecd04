"""The physical machine: pCPUs, VMs, scheduler, and strategy slots.

A :class:`Machine` is the root object of the hypervisor substrate. The
scheduling *strategy* — vanilla credit, PLE, relaxed co-scheduling, or
IRS — is selected by which optional component fills a slot. Each slot
is a plain attribute that its installer assigns
(``repro.experiments.strategies.apply_strategy`` maps a strategy name
to installers):

* ``sa_sender`` — the IRS scheduler-activation sender (``install_irs``);
* ``ple`` — the pause-loop-exiting monitor;
* ``relaxed_co`` — the relaxed co-scheduling monitor;
* ``hv_balancer`` — the VM-oblivious vCPU balancer (unpinned mode), or
  the balance scheduler wrapping it;
* ``delay_preempt`` — the delayed-preemption manager;
* ``fault_injector`` — the fault plane (``FaultInjector.attach``).
"""

from weakref import WeakKeyDictionary, ref

from .channels import EventChannels
from .credit import CreditConfig, CreditScheduler
from .hypercalls import HypercallInterface
from .pcpu import PCpu


# Simulator -> a weak reference to the first Machine made on it, so a
# second one can tell the first that they share the simulator.
_FIRST_MACHINES = WeakKeyDictionary()


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
        # The guest tick timer of every VM here
        # (``repro.guestos.timers.TickTimer``), made by the first guest
        # kernel bound to this machine.
        self.guest_ticks = None
        # True once another Machine is made on ``sim`` (the hosts of a
        # cluster share one): a tick timer built after that does not
        # fold.
        self.shares_simulator = False
        first = _FIRST_MACHINES.get(sim)
        if first is None:
            _FIRST_MACHINES[sim] = ref(self)
        else:
            self.shares_simulator = True
            first = first()
            if first is not None:
                first.shares_simulator = True

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
