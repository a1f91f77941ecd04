"""Integration tests for the LHP/LWP lock pathologies themselves.

These pin down the micro-mechanics the paper's Section 1-2 describes:
what exactly happens when a lock holder or a ticket-lock waiter loses
its vCPU, and how the two spinlock fairness disciplines differ under
preemption.
"""

from repro.simkernel import Simulator
from repro.simkernel.units import MS, SEC, US
from repro.workloads import (
    Acquire,
    Compute,
    Mutex,
    Release,
    SpinLock,
    cpu_hog,
)

from conftest import build_machine, build_vm


def contended_quad(sim, seed_kernel=True):
    """4 pCPUs, fg VM with 4 vCPUs, one hog sharing pCPU 0."""
    machine = build_machine(sim, 4)
    fg_vm, kernel = build_vm(sim, machine, 'fg', n_vcpus=4,
                             pinning=[0, 1, 2, 3])
    __, hk = build_vm(sim, machine, 'hog', pinning=[0])
    hk.spawn('hog', cpu_hog(10 * MS))
    machine.start()
    return machine, fg_vm, kernel


class TestLockHolderPreemption:
    def test_holder_preemption_stalls_all_waiters(self):
        """The defining LHP event: waiters observe a wait roughly equal
        to the hypervisor scheduling delay, far beyond the critical
        section length."""
        sim = Simulator(seed=21)
        machine, vm, kernel = contended_quad(sim)
        lock = Mutex()
        waits = []

        def locker(n):
            for __ in range(n):
                yield Compute(1 * MS)
                started = sim.now
                yield Acquire(lock)
                waits.append(sim.now - started)
                yield Compute(100 * US)
                yield Release(lock)
        for i in range(4):
            kernel.spawn('w%d' % i, locker(400), gcpu_index=i)
        sim.run_until(10 * SEC)
        long_waits = [w for w in waits if w > 10 * MS]
        # LHP episodes occurred...
        assert long_waits
        # ...and their magnitude is slice-scale, not section-scale.
        assert max(long_waits) > 20 * MS

    def test_no_interference_no_long_waits(self):
        sim = Simulator(seed=22)
        machine = build_machine(sim, 4)
        vm, kernel = build_vm(sim, machine, 'fg', n_vcpus=4,
                              pinning=[0, 1, 2, 3])
        machine.start()
        lock = Mutex()
        waits = []

        def locker(n):
            for __ in range(n):
                yield Compute(1 * MS)
                started = sim.now
                yield Acquire(lock)
                waits.append(sim.now - started)
                yield Compute(100 * US)
                yield Release(lock)
        for i in range(4):
            kernel.spawn('w%d' % i, locker(300), gcpu_index=i)
        sim.run_until(10 * SEC)
        assert waits
        assert max(waits) < 5 * MS


class TestTicketLockAmplification:
    """Fair (ticket) spinlocks hand the lock to preempted waiters,
    turning one preemption into a convoy — the LWP amplifier the
    pvspinlock literature targets."""

    def _run(self, fair, seed):
        """Lock-heavy loop (the regime where a frozen ticket holder
        convoys everyone): short compute, long critical section."""
        sim = Simulator(seed=seed)
        machine, vm, kernel = contended_quad(sim)
        lock = SpinLock('l', fair=fair)
        done = []

        def locker(n):
            for __ in range(n):
                yield Compute(200 * US)
                yield Acquire(lock)
                yield Compute(500 * US)
                yield Release(lock)
        for i in range(4):
            kernel.spawn('w%d' % i, locker(300), gcpu_index=i,
                         on_exit=lambda t, now: done.append(now))
        sim.run_until(120 * SEC)
        assert len(done) == 4
        return max(done)

    def test_unfair_lock_beats_ticket_lock_under_preemption(self):
        ticket = self._run(fair=True, seed=31)
        unfair = self._run(fair=False, seed=31)
        # The ticket discipline grants the lock to frozen waiters and
        # convoys; test-and-set lets a running waiter win the race.
        assert unfair < ticket * 0.8

    def test_ticket_lock_convoys_are_slice_scale(self):
        """The ticket run's excess over the serialized critical path is
        made of scheduling-slice stalls."""
        ticket = self._run(fair=True, seed=32)
        # Serialized critical sections alone: 4 x 300 x 0.5ms = 600ms.
        # The convoy stalls push well beyond that.
        assert ticket > 900 * MS


class TestWeightedVMs:
    def test_irs_respects_weights(self):
        """A double-weight foreground VM keeps its 2:1 CPU advantage
        whether or not IRS is active."""
        from repro.core import install_irs
        from repro.guestos import GuestKernel
        from repro.hypervisor import Machine, VM

        def run(irs):
            sim = Simulator(seed=33)
            machine = Machine(sim, 1)
            heavy = VM('heavy', 1, sim, weight=512)
            light = VM('light', 1, sim, weight=256)
            machine.add_vm(heavy, pinning=[0])
            machine.add_vm(light, pinning=[0])
            hk = GuestKernel(sim, heavy, machine)
            lk = GuestKernel(sim, light, machine)
            if irs:
                install_irs(machine, [hk])
            hk.spawn('h', cpu_hog(10 * MS))
            lk.spawn('l', cpu_hog(10 * MS))
            machine.start()
            sim.run_until(3 * SEC)
            return (heavy.total_runstate(sim.now)[0],
                    light.total_runstate(sim.now)[0])
        plain = run(False)
        with_irs = run(True)
        for heavy_run, light_run in (plain, with_irs):
            assert heavy_run > light_run * 1.3
        # IRS changes the heavy VM's share by at most a few percent.
        assert abs(with_irs[0] - plain[0]) < 0.1 * plain[0]
