"""Behavioural tests for the credit scheduler."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import apply_strategy
from repro.hypervisor import Machine, VM
from repro.hypervisor.balancer import HypervisorBalancer
from repro.hypervisor.channels import VIRQ_TIMER
from repro.hypervisor.vcpu import PRI_BOOST, PRI_OVER, PRI_UNDER
from repro.simkernel import Simulator
from repro.simkernel.units import MS, SEC, US
from repro.workloads import Acquire, Compute, Release, SpinLock

from conftest import build_vm


def hog():
    while True:
        yield Compute(10 * MS)


class TestFairSharing:
    def test_two_equal_vms_split_a_pcpu(self):
        sim = Simulator(seed=1)
        machine = Machine(sim, n_pcpus=1)
        __, k1 = build_vm(sim, machine, 'a', pinning=[0])
        __, k2 = build_vm(sim, machine, 'b', pinning=[0])
        k1.spawn('h1', hog())
        k2.spawn('h2', hog())
        machine.start()
        sim.run_until(2 * SEC)
        run_a = machine.vms[0].total_runstate(sim.now)[0]
        run_b = machine.vms[1].total_runstate(sim.now)[0]
        assert abs(run_a - run_b) < 0.1 * 2 * SEC
        assert run_a + run_b > 1.9 * SEC  # work conserving

    def test_three_vms_each_get_a_third(self):
        sim = Simulator(seed=2)
        machine = Machine(sim, n_pcpus=1)
        kernels = []
        for name in ('a', 'b', 'c'):
            __, k = build_vm(sim, machine, name, pinning=[0])
            kernels.append(k)
        for i, k in enumerate(kernels):
            k.spawn('h%d' % i, hog())
        machine.start()
        sim.run_until(3 * SEC)
        for vm in machine.vms:
            run = vm.total_runstate(sim.now)[0]
            assert 0.75 * SEC < run < 1.35 * SEC

    def test_higher_weight_gets_more_cpu(self):
        sim = Simulator(seed=3)
        machine = Machine(sim, n_pcpus=1)
        heavy = VM('heavy', 1, sim, weight=512)
        light = VM('light', 1, sim, weight=256)
        machine.add_vm(heavy, pinning=[0])
        machine.add_vm(light, pinning=[0])
        from repro.guestos import GuestKernel
        kh = GuestKernel(sim, heavy, machine)
        kl = GuestKernel(sim, light, machine)
        kh.spawn('h', hog())
        kl.spawn('l', hog())
        machine.start()
        sim.run_until(3 * SEC)
        run_heavy = heavy.total_runstate(sim.now)[0]
        run_light = light.total_runstate(sim.now)[0]
        assert run_heavy > run_light * 1.3


class TestSliceBehaviour:
    def test_alternation_at_slice_granularity(self):
        """Two competing vCPUs swap on ~30 ms boundaries — the delay
        that causes LHP (Figure 1b's staircase)."""
        sim = Simulator(seed=4)
        machine = Machine(sim, n_pcpus=1)
        __, k1 = build_vm(sim, machine, 'a', pinning=[0])
        __, k2 = build_vm(sim, machine, 'b', pinning=[0])
        k1.spawn('h1', hog())
        k2.spawn('h2', hog())
        machine.start()
        sim.run_until(1 * SEC)
        preemptions = sim.trace.counters['hv.preemptions']
        # ~1000ms / 30ms slices = ~33 switches; allow slack.
        assert 20 <= preemptions <= 50

    def test_single_vcpu_runs_unpreempted(self):
        sim = Simulator(seed=5)
        machine = Machine(sim, n_pcpus=1)
        __, k = build_vm(sim, machine, 'solo', pinning=[0])
        k.spawn('h', hog())
        machine.start()
        sim.run_until(1 * SEC)
        assert sim.trace.counters['hv.preemptions'] == 0
        run = machine.vms[0].total_runstate(sim.now)[0]
        assert run == 1 * SEC


class TestWakeBoosting:
    def test_waking_vcpu_preempts_hog(self):
        """An idle-blocked vCPU that wakes gets BOOST priority and
        preempts a CPU-bound competitor almost immediately."""
        sim = Simulator(seed=6)
        machine = Machine(sim, n_pcpus=1)
        __, kb = build_vm(sim, machine, 'hog', pinning=[0])
        __, ks = build_vm(sim, machine, 'sleeper', pinning=[0])
        kb.spawn('h', hog())

        def sleepy():
            from repro.workloads import Sleep
            while True:
                yield Sleep(50 * MS)
                yield Compute(1 * MS)
        ks.spawn('s', sleepy())
        machine.start()
        sim.run_until(1 * SEC)
        run_sleepy = machine.vms[1].total_runstate(sim.now)[0]
        # The sleeper needs ~1ms per 51ms cycle = ~19ms total. Without
        # boosting it would be starved to slice boundaries.
        assert run_sleepy > 15 * MS
        steal_sleepy = machine.vms[1].total_runstate(sim.now)[1]
        assert steal_sleepy < 50 * MS


class TestBlockYield:
    def test_blocked_vm_consumes_nothing(self):
        sim = Simulator(seed=7)
        machine = Machine(sim, n_pcpus=1)
        __, k = build_vm(sim, machine, 'idle', pinning=[0])
        machine.start()
        sim.run_until(500 * MS)
        run, __, blocked = machine.vms[0].total_runstate(sim.now)
        assert run == 0
        assert blocked == 500 * MS

    def test_work_conserving_when_competitor_blocks(self):
        sim = Simulator(seed=8)
        machine = Machine(sim, n_pcpus=1)
        __, kh = build_vm(sim, machine, 'hog', pinning=[0])
        __, ki = build_vm(sim, machine, 'idle', pinning=[0])
        kh.spawn('h', hog())
        machine.start()
        sim.run_until(1 * SEC)
        run_hog = machine.vms[0].total_runstate(sim.now)[0]
        assert run_hog == 1 * SEC


class TestDeferredPreemptionGuard:
    def test_complete_deferred_without_deferral_raises(self):
        sim = Simulator(seed=9)
        machine = Machine(sim, n_pcpus=1)
        vm, k = build_vm(sim, machine, 'a', pinning=[0])
        k.spawn('h', hog())
        machine.start()
        sim.run_until(10 * MS)
        with pytest.raises(RuntimeError):
            machine.scheduler.complete_deferred_preemption(
                vm.vcpus[0], block=False)


def _two_step_switch(runq, prev):
    """Reference yield: ``insert_vcpu(prev)``, then dispatch what
    ``peek_best`` names. Returns (dispatched, runqueue after)."""
    queue = list(runq)
    pos = next((i for i, v in enumerate(queue)
                if v.priority > prev.priority), len(queue))
    queue.insert(pos, prev)
    best = next((v for v in queue if not v.costopped), None)
    if best is not None:
        queue.remove(best)
    return best, queue


_PRIORITIES = st.sampled_from([PRI_BOOST, PRI_UNDER, PRI_OVER])


class TestSwitch:
    @settings(max_examples=200, deadline=None)
    @given(queued=st.lists(st.tuples(_PRIORITIES, st.booleans()),
                           max_size=5),
           prev_priority=_PRIORITIES, prev_costopped=st.booleans())
    def test_yield_dispatches_as_requeue_then_pick(
            self, queued, prev_priority, prev_costopped):
        """A yield picks the vCPU (and leaves the runqueue) that
        requeueing prev and then picking would, on runqueues in any
        priority order (accounting re-ranks queued vCPUs in place)."""
        sim = Simulator(seed=0)
        machine = Machine(sim, n_pcpus=1)
        pcpu = machine.pcpus[0]
        vm = VM('q', len(queued) + 1, sim)
        machine.add_vm(vm, pinning=[0] * vm.n_vcpus)
        prev, others = vm.vcpus[0], vm.vcpus[1:]
        for vcpu, (priority, costopped) in zip(others, queued):
            vcpu.set_runstate('runnable', 0)
            vcpu.priority, vcpu.costopped = priority, costopped
            pcpu.runq.append(vcpu)
        prev.set_runstate('running', 0)
        prev.priority, prev.costopped = prev_priority, prev_costopped
        pcpu.current = prev
        expected, expected_runq = _two_step_switch(pcpu.runq, prev)

        machine.scheduler.force_yield(prev)

        assert pcpu.current is expected
        assert pcpu.runq == expected_runq
        assert prev.preemptions == 1
        assert sim.trace.counters['hv.preemptions'] == 1
        assert prev.is_running == (expected is prev)

    def test_ple_exit_of_lone_spinner_keeps_its_pcpu(self):
        """A spinning vCPU alone on its pCPU is re-picked by its PLE
        exit: counted as a preemption, dispatched afresh (new slice,
        guest tick re-armed, PLE window re-armed) and never queued."""
        sim = Simulator(seed=1)
        machine = Machine(sim, n_pcpus=2)
        apply_strategy(machine, 'ple')
        vm, kernel = build_vm(sim, machine, 'par', n_vcpus=2,
                              pinning=[0, 1])
        lock = SpinLock('l')

        def holder():
            yield Acquire(lock)
            yield Compute(1 * SEC)
            yield Release(lock)

        def waiter():
            yield Compute(300 * US)
            yield Acquire(lock)
            yield Release(lock)
        kernel.spawn('holder', holder(), gcpu_index=1)
        kernel.spawn('waiter', waiter(), gcpu_index=0)
        machine.start()
        spinner, pcpu = vm.vcpus[0], machine.pcpus[0]
        sim.run_until(400 * US)
        expiry = spinner.ple_window.time
        sim.run_until(expiry - 1)
        counters = sim.trace.counters
        before = (counters['ple.exits'], counters['hv.preemptions'],
                  spinner.preemptions)
        sim.run_until(expiry)

        after = (counters['ple.exits'], counters['hv.preemptions'],
                 spinner.preemptions)
        assert after == tuple(n + 1 for n in before)
        assert pcpu.current is spinner and pcpu.runq == []
        assert spinner.slice_start == expiry
        tick = spinner.gcpu.tick_event
        assert tick.pending
        assert tick.time == expiry + kernel.policy.config.tick_ns
        assert spinner.ple_window.pending
        assert spinner.ple_window.time == expiry + 50 * US


def _key(handle):
    return None if handle is None else (handle.time, handle.seq,
                                        handle.pending)


def _snapshot(sim, machine, kernel):
    """Every value a PLE exit can touch, by name."""
    vcpus = [vcpu for vm in machine.vms for vcpu in vm.vcpus]
    return {
        'now': sim.now,
        'seq': sim._queue._seq,
        'live': len(sim._queue),
        'counters': dict(sim.trace.counters),
        'pcpus': [(p.current and p.current.name, [v.name for v in p.runq],
                   p.preempt_deferred, p.busy_ns) for p in machine.pcpus],
        'vcpus': [(v.name, v.runstate, v.run_ns, v.steal_ns, v.preemptions,
                   v.slice_start, v.priority, list(v.pending_virqs),
                   _key(v.ple_window))
                  for v in vcpus],
        'gcpus': [(g.name, g.busy_ns, g.rq.min_vruntime, g.run_started_at,
                   len(g.pending_work), _key(g.tick_event),
                   _key(g.quantum_event))
                  for g in kernel.gcpus],
        'tasks': [(t.name, t.state, t.vruntime, t.cpu_ns, t.spinning)
                  for t in kernel.tasks],
    }


def _spinner_at_its_window(queued, spinner_priority, case):
    """A PLE machine whose vCPU ``par.v0`` spins on pCPU 0, one ns
    before its window expires, with ``queued`` (priority, co-stopped)
    vCPUs of another VM on pCPU 0's runqueue and ``case`` applied."""
    sim = Simulator(seed=1)
    machine = Machine(sim, n_pcpus=2)
    apply_strategy(machine, 'ple')
    vm, kernel = build_vm(sim, machine, 'par', n_vcpus=2, pinning=[0, 1])
    others = VM('q', max(len(queued), 1), sim)
    machine.add_vm(others, pinning=[0] * others.n_vcpus)
    lock = SpinLock('l')

    def holder():
        yield Acquire(lock)
        yield Compute(1 * SEC)
        yield Release(lock)

    def waiter():
        yield Compute(300 * US)
        yield Acquire(lock)
        yield Release(lock)
    kernel.spawn('holder', holder(), gcpu_index=1)
    kernel.spawn('waiter', waiter(), gcpu_index=0)
    machine.start()
    spinner, pcpu = vm.vcpus[0], machine.pcpus[0]
    sim.run_until(400 * US)
    expiry = spinner.ple_window.time
    sim.run_until(expiry - 1)
    for vcpu, (priority, costopped) in zip(others.vcpus, queued):
        vcpu.set_runstate('runnable', sim.now)
        vcpu.priority, vcpu.costopped = priority, costopped
        pcpu.runq.append(vcpu)
    spinner.priority = spinner_priority
    if case == 'virq':
        spinner.pending_virqs.append(VIRQ_TIMER)
    elif case == 'balancer':
        machine.hv_balancer = HypervisorBalancer(machine)
    elif case == 'deferred':
        pcpu.preempt_deferred = True
    elif case == 'stopper':
        spinner.gcpu.pending_work.append(lambda: None)
    return sim, machine, kernel, spinner, pcpu, expiry


class TestInPlacePleExit:
    @settings(max_examples=60, deadline=None)
    @given(queued=st.lists(st.tuples(_PRIORITIES, st.booleans()),
                           max_size=3),
           spinner_priority=_PRIORITIES,
           case=st.sampled_from(['plain', 'virq', 'balancer', 'deferred',
                                 'stopper']))
    def test_matches_force_yield_then_window_rearm(
            self, queued, spinner_priority, case):
        """A PLE exit leaves the machine as ``force_yield`` followed by
        the window re-arm of ``on_spin_start`` does, and takes the
        one-step path exactly when the yield re-picks the spinner with
        nothing else to do (no better vCPU, vIRQ, steal path, parked SA
        preemption or stopper work)."""
        fired = _spinner_at_its_window(queued, spinner_priority, case)
        sim, machine, kernel, spinner, pcpu, expiry = fired
        reference = _spinner_at_its_window(queued, spinner_priority, case)
        ref_sim, ref_machine, ref_kernel, ref_spinner = reference[:4]

        def force_yield_exit(vcpu):
            # The full switch: a re-picked spinner's guest start runs
            # its task, whose spin re-arms the window (on_spin_start).
            ref_sim.trace.count('ple.exits')
            ref_machine.scheduler.force_yield(vcpu)
        ref_spinner.ple_window.callback = force_yield_exit
        switches = []
        switch = machine.scheduler._switch
        machine.scheduler._switch = lambda *a: (switches.append(a),
                                                switch(*a))
        in_place = (case == 'plain'
                    and pcpu.peek_best(spinner) is spinner)

        exits = sim.trace.counters['ple.exits']

        sim.run_until(expiry)
        ref_sim.run_until(expiry)

        assert sim.trace.counters['ple.exits'] == exits + 1
        assert (switches == []) == in_place
        assert _snapshot(sim, machine, kernel) == _snapshot(
            ref_sim, ref_machine, ref_kernel)
        if in_place:
            assert pcpu.current is spinner and spinner.ple_window.pending
            assert spinner.ple_window.time == expiry + 50 * US
        sim.run_until(expiry + 3 * MS)
        ref_sim.run_until(expiry + 3 * MS)
        assert _snapshot(sim, machine, kernel) == _snapshot(
            ref_sim, ref_machine, ref_kernel)
