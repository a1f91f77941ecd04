"""Behavioural tests for the PLE and relaxed co-scheduling strategies."""

from repro.experiments import apply_strategy
from repro.hypervisor import Machine, PleMonitor
from repro.simkernel import Simulator
from repro.simkernel.units import MS, SEC, US
from repro.workloads import Acquire, Compute, Release, SpinLock

from conftest import build_vm


def hog():
    while True:
        yield Compute(10 * MS)


class TestPle:
    def _spin_scenario(self, ple):
        """Two tasks of one VM contend a spinlock on vCPUs pinned to
        the same... no: the spinner shares a pCPU with a hog VM, so a
        PLE yield hands the CPU to the hog."""
        sim = Simulator(seed=1)
        machine = Machine(sim, n_pcpus=2)
        if ple:
            apply_strategy(machine, 'ple')
        vm, kernel = build_vm(sim, machine, 'par', n_vcpus=2,
                              pinning=[0, 1])
        __, hk = build_vm(sim, machine, 'hog', n_vcpus=1, pinning=[1])
        lock = SpinLock('l')

        def holder():
            while True:
                yield Acquire(lock)
                yield Compute(20 * MS)
                yield Release(lock)
                yield Compute(100 * US)

        def waiter():
            while True:
                yield Acquire(lock)
                yield Compute(100 * US)
                yield Release(lock)
        kernel.spawn('holder', holder(), gcpu_index=0)
        kernel.spawn('waiter', waiter(), gcpu_index=1)
        hk.spawn('hog', hog(), gcpu_index=0)
        machine.start()
        sim.run_until(1 * SEC)
        return sim, machine

    def test_ple_detects_spin_and_yields(self):
        sim, machine = self._spin_scenario(ple=True)
        assert sim.trace.counters['ple.exits'] > 5

    def test_no_ple_no_exits(self):
        sim, machine = self._spin_scenario(ple=False)
        assert sim.trace.counters['ple.exits'] == 0

    def test_ple_gives_cycles_to_competitor(self):
        """The hog sharing with the spinner gets more CPU when PLE
        stops the futile spinning."""
        __, machine_no = self._spin_scenario(ple=False)
        sim_no = machine_no.sim
        hog_no = machine_no.vms[1].total_runstate(sim_no.now)[0]
        __, machine_ple = self._spin_scenario(ple=True)
        sim_ple = machine_ple.sim
        hog_ple = machine_ple.vms[1].total_runstate(sim_ple.now)[0]
        assert hog_ple > hog_no

    def test_short_spin_does_not_trigger(self):
        sim = Simulator(seed=2)
        machine = Machine(sim, n_pcpus=1)
        machine.ple = PleMonitor(sim, machine, window_ns=50 * US)
        vm, kernel = build_vm(sim, machine, 'par', pinning=[0])
        lock = SpinLock('l')

        def quick():
            while True:
                yield Acquire(lock)
                yield Compute(10 * US)
                yield Release(lock)
        kernel.spawn('q', quick())
        machine.start()
        sim.run_until(200 * MS)
        assert sim.trace.counters['ple.exits'] == 0


class TestRelaxedCo:
    def _skewed_vm(self, relaxed):
        """A 2-vCPU VM whose vCPU1 shares a pCPU with a hog: vCPU1
        accrues skew; relaxed-co should boost it at the leader's
        expense."""
        sim = Simulator(seed=3)
        machine = Machine(sim, n_pcpus=2)
        if relaxed:
            apply_strategy(machine, 'relaxed_co')
        vm, kernel = build_vm(sim, machine, 'par', n_vcpus=2,
                              pinning=[0, 1])
        __, hk = build_vm(sim, machine, 'hog', n_vcpus=1, pinning=[1])
        for i in range(2):
            kernel.spawn('w%d' % i, hog(), gcpu_index=i)
        hk.spawn('hog', hog(), gcpu_index=0)
        machine.start()
        sim.run_until(2 * SEC)
        return sim, machine, vm

    def test_switches_happen_under_skew(self):
        sim, machine, vm = self._skewed_vm(relaxed=True)
        assert sim.trace.counters['relaxedco.switches'] > 0

    def test_no_switches_without_strategy(self):
        sim, machine, vm = self._skewed_vm(relaxed=False)
        assert sim.trace.counters['relaxedco.switches'] == 0

    def test_reduces_sibling_skew(self):
        __, __, vm_plain = self._skewed_vm(relaxed=False)
        __, machine, vm_rco = self._skewed_vm(relaxed=True)

        def skew(vm, now):
            runs = [v.snapshot_accounting(now)[0] for v in vm.vcpus]
            return max(runs) - min(runs)
        plain_skew = skew(vm_plain, 2 * SEC)
        rco_skew = skew(vm_rco, 2 * SEC)
        assert rco_skew < plain_skew

    def test_single_vcpu_vm_ignored(self):
        sim = Simulator(seed=4)
        machine = Machine(sim, n_pcpus=1)
        apply_strategy(machine, 'relaxed_co')
        __, kernel = build_vm(sim, machine, 'uni', pinning=[0])
        __, hk = build_vm(sim, machine, 'hog', pinning=[0])
        kernel.spawn('w', hog())
        hk.spawn('h', hog())
        machine.start()
        sim.run_until(1 * SEC)
        assert sim.trace.counters['relaxedco.switches'] == 0

