"""Scenario construction: machines, VMs, pinning, interference.

Encodes the paper's experimental settings (Section 5.1):

* the foreground VM's vCPUs are pinned one per pCPU (except in the
  CPU-stacking experiments, where everything floats);
* ``k``-inter means an interfering VM with ``k`` vCPUs pinned to pCPUs
  0..k-1, running either ``k`` CPU hogs or a ``k``-thread real
  application;
* stacking ``n_vms`` interfering VMs (Figure 11) multiplies contention
  on each interfered pCPU.
"""

from ..guestos import GuestKernel
from ..hypervisor import HypervisorBalancer, Machine, VM
from ..simkernel import Simulator
from ..workloads import HogWorkload, ParallelWorkload, get_profile


class InterferenceSpec:
    """What competes with the foreground VM.

    ``kind`` is ``'hogs'`` for the synthetic micro-benchmark or a
    benchmark profile name (e.g. ``'streamcluster'``) for real
    application interference. ``width`` is the number of interfered
    foreground vCPUs (the paper's 1-inter./2-inter./4-inter.);
    ``n_vms`` stacks several interfering VMs on the same pCPUs.
    """

    def __init__(self, kind='hogs', width=1, n_vms=1):
        if width < 0:
            raise ValueError('width must be >= 0')
        if n_vms < 1:
            raise ValueError('n_vms must be >= 1')
        self.kind = kind
        self.width = width
        self.n_vms = n_vms

    def __repr__(self):
        return '<Interference %s width=%d vms=%d>' % (
            self.kind, self.width, self.n_vms)


NO_INTERFERENCE = InterferenceSpec(width=0)


class Scenario:
    """A built experiment: simulator, machine, kernels, workloads."""

    def __init__(self, sim, machine, fg_vm, fg_kernel, bg_kernels,
                 bg_workloads):
        self.sim = sim
        self.machine = machine
        self.fg_vm = fg_vm
        self.fg_kernel = fg_kernel
        self.bg_kernels = bg_kernels
        self.bg_workloads = bg_workloads

    @property
    def all_kernels(self):
        return [self.fg_kernel] + list(self.bg_kernels)


def build_scenario(seed=0, n_pcpus=4, fg_vcpus=4,
                   interference=NO_INTERFERENCE, pinned=True, scale=1.0):
    """Construct the machine and VMs for one run. The foreground VM is
    created with its guest kernel but no workload yet; interference is
    fully installed. Returns a :class:`Scenario`."""
    sim = Simulator(seed=seed)
    machine = Machine(sim, n_pcpus=n_pcpus)
    if not pinned:
        machine.hv_balancer = HypervisorBalancer(machine)

    fg_vm = VM('fg', fg_vcpus, sim)
    fg_pinning = list(range(fg_vcpus)) if pinned else None
    machine.add_vm(fg_vm, pinning=fg_pinning)
    fg_kernel = GuestKernel(sim, fg_vm, machine)

    bg_kernels = []
    bg_workloads = []
    width = interference.width
    if width > 0:
        for v in range(interference.n_vms):
            vm = VM('bg%d' % v, width, sim)
            bg_pinning = list(range(width)) if pinned else None
            machine.add_vm(vm, pinning=bg_pinning)
            kernel = GuestKernel(sim, vm, machine)
            bg_kernels.append(kernel)
            if interference.kind == 'hogs':
                workload = HogWorkload(sim, kernel, count=width,
                                       name='bg%d.hog' % v)
            else:
                profile = get_profile(interference.kind)
                workload = ParallelWorkload(
                    sim, kernel, profile, n_threads=width, repeat=True,
                    scale=scale, prefix='bg%d.%s' % (v, profile.name))
            bg_workloads.append(workload)

    machine.start()
    for workload in bg_workloads:
        workload.install()
    return Scenario(sim, machine, fg_vm, fg_kernel, bg_kernels,
                    bg_workloads)
