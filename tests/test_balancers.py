"""Unit tests for the hypervisor vCPU balancer and the guest load
balancer's decision logic."""

from repro.guestos.balancer import GuestBalancer
from repro.hypervisor import Machine, VM
from repro.hypervisor.balancer import HypervisorBalancer
from repro.hypervisor.vcpu import PRI_OVER
from repro.simkernel import Simulator
from repro.simkernel.units import MS, SEC
from repro.workloads import Compute, Sleep, cpu_hog

from conftest import build_machine, build_vm


class TestHypervisorWakePlacement:
    def _machine(self, n_pcpus=4):
        sim = Simulator(seed=1)
        machine = Machine(sim, n_pcpus)
        machine.hv_balancer = HypervisorBalancer(machine)
        vm = VM('vm', n_pcpus, sim)
        machine.add_vm(vm)
        return sim, machine, vm

    def test_prefers_least_loaded_snapshot(self):
        sim, machine, vm = self._machine()
        balancer = machine.hv_balancer
        # Fill pcpu 0..2 with fake load by inserting runnable vCPUs.
        for i in range(3):
            vcpu = vm.vcpus[i]
            vcpu.set_runstate('runnable', 0)
            machine.pcpus[i].insert_vcpu(vcpu)
        pick = balancer.pick_pcpu_for_wake(vm.vcpus[3])
        assert pick is machine.pcpus[3]

    def test_tie_break_prefers_home(self):
        sim, machine, vm = self._machine()
        balancer = machine.hv_balancer
        vcpu = vm.vcpus[2]
        vcpu.pcpu = machine.pcpus[2]
        pick = balancer.pick_pcpu_for_wake(vcpu)
        assert pick is machine.pcpus[2]

    def test_snapshot_staleness_collides_simultaneous_wakes(self):
        """Two wakes inside one snapshot window see the same loads and
        pick the same pCPU — the stacking race of Section 5.6."""
        sim, machine, vm = self._machine()
        balancer = machine.hv_balancer
        # Make pCPU 0 the unique least-loaded before the snapshot.
        for i in (1, 2, 3):
            vcpu = vm.vcpus[i]
            vcpu.set_runstate('runnable', 0)
            machine.pcpus[i].insert_vcpu(vcpu)
        extra_vm = VM('extra', 2, sim)
        machine.add_vm(extra_vm)
        first = balancer.pick_pcpu_for_wake(extra_vm.vcpus[0])
        assert first is machine.pcpus[0]
        # Occupy it for real; within the same stale snapshot the second
        # wake still lands there.
        occupant = extra_vm.vcpus[0]
        occupant.set_runstate('runnable', 0)
        first.insert_vcpu(occupant)
        second = balancer.pick_pcpu_for_wake(extra_vm.vcpus[1])
        assert second is first

    def test_snapshot_refreshes_after_interval(self):
        sim, machine, vm = self._machine()
        balancer = machine.hv_balancer
        first = balancer.pick_pcpu_for_wake(vm.vcpus[0])
        other = vm.vcpus[1]
        other.set_runstate('runnable', 0)
        first.insert_vcpu(other)
        sim.now = balancer.snapshot_interval_ns + 1
        second = balancer.pick_pcpu_for_wake(vm.vcpus[2])
        assert second is not first


class TestHypervisorRebalance:
    def test_rebalance_spreads_queued_vcpus(self):
        sim = Simulator(seed=2)
        machine = Machine(sim, 2)
        machine.hv_balancer = HypervisorBalancer(machine)
        vm = VM('vm', 3, sim)
        machine.add_vm(vm)
        for vcpu in vm.vcpus:
            vcpu.set_runstate('runnable', 0)
            machine.pcpus[0].insert_vcpu(vcpu)
        moved = machine.hv_balancer.periodic_rebalance()
        assert moved >= 1
        # The moved vCPU is either queued on or already running on the
        # idler pCPU (the tickle dispatches it immediately).
        assert (machine.pcpus[1].nr_runnable >= 1
                or machine.pcpus[1].current is not None)

    def test_balanced_queues_untouched(self):
        sim = Simulator(seed=3)
        machine = Machine(sim, 2)
        machine.hv_balancer = HypervisorBalancer(machine)
        vm = VM('vm', 2, sim)
        machine.add_vm(vm)
        for i, vcpu in enumerate(vm.vcpus):
            vcpu.set_runstate('runnable', 0)
            machine.pcpus[i].insert_vcpu(vcpu)
        assert machine.hv_balancer.periodic_rebalance() == 0

    def test_pinned_vcpus_never_moved(self):
        sim = Simulator(seed=4)
        machine = Machine(sim, 2)
        machine.hv_balancer = HypervisorBalancer(machine)
        vm = VM('vm', 3, sim)
        machine.add_vm(vm, pinning=[0, 0, 0])
        for vcpu in vm.vcpus:
            vcpu.set_runstate('runnable', 0)
            machine.pcpus[0].insert_vcpu(vcpu)
        assert machine.hv_balancer.periodic_rebalance() == 0
        assert machine.pcpus[1].nr_runnable == 0

    def test_repick_that_keeps_its_pcpu_is_not_a_move(self):
        """The force-yielded vCPU outranks the two OVER vCPUs pinned
        behind it, so it is re-picked where it ran: nothing moved."""
        sim = Simulator(seed=5)
        machine = Machine(sim, 2)
        machine.hv_balancer = HypervisorBalancer(machine)
        floating = VM('float', 1, sim)
        machine.add_vm(floating)
        pinned = VM('pinned', 2, sim)
        machine.add_vm(pinned, pinning=[0, 0])
        pcpu0 = machine.pcpus[0]
        for vcpu in pinned.vcpus:
            vcpu.set_runstate('runnable', 0)
            vcpu.priority = PRI_OVER
            pcpu0.insert_vcpu(vcpu)
        runner = floating.vcpus[0]
        runner.set_runstate('runnable', 0)
        pcpu0.insert_vcpu_head(runner)
        machine.scheduler._schedule(pcpu0)
        assert pcpu0.current is runner

        assert machine.hv_balancer.periodic_rebalance() == 0
        assert sim.trace.counters['hv.repicks'] == 0
        assert pcpu0.current is runner
        assert machine.pcpus[1].current is None


class TestGuestWakeBalancing:
    def _kernel(self, sim, n=2):
        machine = build_machine(sim, n)
        vm, kernel = build_vm(sim, machine, n_vcpus=n,
                              pinning=list(range(n)))
        machine.start()
        return machine, kernel

    def test_wake_stays_on_idle_prev_cpu(self, sim):
        machine, kernel = self._kernel(sim)

        def napper():
            for __ in range(5):
                yield Compute(1 * MS)
                yield Sleep(3 * MS)
        task = kernel.spawn('n', napper(), gcpu_index=1)
        sim.run_until(100 * MS)
        assert task.migrations == 0

    def test_wake_moves_to_idle_sibling_when_prev_busy(self, sim):
        machine, kernel = self._kernel(sim)
        kernel.spawn('busy', cpu_hog(10 * MS), gcpu_index=0)
        sleeper_done = []

        def one_nap():
            yield Compute(100_000)
            yield Sleep(5 * MS)
            yield Compute(1 * MS)
        task = kernel.spawn('napper', one_nap(), gcpu_index=0,
                            on_exit=lambda t, now: sleeper_done.append(now))
        sim.run_until(200 * MS)
        # On wake, gcpu0 runs the hog; the napper lands on idle gcpu1.
        assert sleeper_done
        assert task.gcpu is kernel.gcpus[1]

    def _napper_vs_intruder(self, sim, rule_on):
        """A sleeper whose home gcpu1 is occupied by a tagged intruder
        when it wakes; gcpu0 idles throughout."""
        machine, kernel = self._kernel(sim)
        kernel.balancer.irs_wake_rule = rule_on

        def one_nap():
            yield Compute(100_000)
            yield Sleep(5 * MS)
            yield Compute(1 * MS)
        task = kernel.spawn('napper', one_nap(), gcpu_index=1)
        sim.run_until(1 * MS)                  # napper now asleep
        intruder = kernel.spawn('intruder', cpu_hog(10 * MS), gcpu_index=1)
        intruder.irs_tag = True
        sim.run_until(3 * MS)
        assert kernel.gcpus[1].current is intruder
        sim.run_until(8 * MS)                  # past the wake
        return task, kernel

    def test_irs_wake_rule_preempts_tagged_intruder(self, sim):
        task, kernel = self._napper_vs_intruder(sim, rule_on=True)
        # The rule keeps the waker home, preempting the intruder.
        assert task.gcpu is kernel.gcpus[1]

    def test_vanilla_wake_migrates_away_from_busy_home(self, sim):
        task, kernel = self._napper_vs_intruder(sim, rule_on=False)
        # Stock behaviour: woken onto the idle sibling instead.
        assert task.gcpu is kernel.gcpus[0]


class TestGuestPullEligibility:
    def test_cache_hot_tasks_skipped_by_periodic(self, sim):
        machine = build_machine(sim, 1)
        vm, kernel = build_vm(sim, machine, pinning=[0])
        machine.start()
        balancer = kernel.balancer
        task = kernel.spawn('t', cpu_hog(10 * MS))
        sim.run_until(2 * MS)
        task.last_descheduled = sim.now
        assert not balancer._pullable(task, sim.now)
        assert balancer._pullable(
            task, sim.now + kernel.policy.config.cache_hot_ns)
