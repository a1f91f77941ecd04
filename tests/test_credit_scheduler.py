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
from repro.workloads import Acquire, Compute, Release, Sleep, SpinLock

from conftest import PerWindowPle, build_vm


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
        guest tick re-armed, next PLE window one window later) and
        never queued."""
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
        expiry = machine.guest_ticks.windows[spinner][0]
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
        ticks = machine.guest_ticks
        assert ticks.keys[spinner.gcpu][0] == (
            expiry + kernel.policy.config.tick_ns)
        assert ticks.event.pending
        assert ticks.windows[spinner][0] == expiry + 50 * US
        # The machine's one timer event sits at the earliest tick or
        # window.
        held = list(ticks.keys.values()) + list(ticks.windows.values())
        assert [ticks.event.time, ticks.event.seq] == min(held)[:2]


def _window_keys(machine):
    """Spinning vCPU -> key of its next PLE window, for either monitor."""
    ple = machine.ple
    if isinstance(ple, PerWindowPle):
        return {vcpu: (h.time, h.seq) for vcpu, h in ple.handles.items()
                if h.pending}
    return {vcpu: (t, s) for vcpu, (t, s, *__)
            in machine.guest_ticks.windows.items()}


def _name(arg):
    return getattr(arg, 'name', type(arg).__name__)


def _tick_keys(ticks):
    """Running gCPU -> key of its next guest tick, for the machine's
    tick timer or a test's per-tick reference."""
    if hasattr(ticks, 'handles'):
        return {gcpu: (h.time, h.seq) for gcpu, h in ticks.handles.items()
                if h.pending}
    return {gcpu: (t, s) for gcpu, (t, s, *__) in ticks.keys.items()}


def _pending_order(sim, machine):
    """Every pending event, every PLE window and every guest tick, in
    firing order, as ``(time, what)``: window and tick events of a
    per-step reference and the keys of a folding monitor or tick timer
    read alike, and the folding timers' own events are left out (they
    stand for the keys)."""
    ple = machine.ple
    ticks = machine.guest_ticks
    keyed = [(t, s, ('ple window', vcpu.name))
             for vcpu, (t, s) in _window_keys(machine).items()]
    keyed += [(t, s, ('guest tick', gcpu.name))
              for gcpu, (t, s) in _tick_keys(ticks).items()]
    for event in sim._queue.peek_events(len(sim._queue._heap)):
        owner = getattr(event.callback, '__self__', None)
        if owner is not None and (owner is ple or owner is ticks):
            continue
        keyed.append((event.time, event.seq,
                      (event.callback.__qualname__,
                       tuple(_name(a) for a in event.args))))
    return [(t, what) for t, __, what in sorted(keyed)]


def _snapshot(sim, machine, kernels):
    """Every value a PLE exit can touch, by name."""
    vcpus = [vcpu for vm in machine.vms for vcpu in vm.vcpus]
    gcpus = [g for kernel in kernels for g in kernel.gcpus]
    return {
        'now': sim.now,
        'pending': _pending_order(sim, machine),
        # The sanitizer (REPRO_SANITIZER=1) counts its checks per event.
        'counters': {name: n for name, n in sim.trace.counters.items()
                     if not name.startswith('sanitizer.')},
        'pcpus': [(p.current and p.current.name, [v.name for v in p.runq],
                   p.preempt_deferred, p.busy_ns) for p in machine.pcpus],
        'vcpus': [(v.name, v.runstate, v.runstate_since, v.run_ns,
                   v.steal_ns, v.blocked_ns, v.preemptions, v.slice_start,
                   v.priority, v.credits, list(v.pending_virqs))
                  for v in vcpus],
        'gcpus': [(g.name, g.busy_ns, g.rq.min_vruntime, g.run_started_at,
                   len(g.pending_work), g.tick_count,
                   g.rt.value.hex(),
                   g.quantum_event and (g.quantum_event.time,
                                        g.quantum_event.pending))
                  for g in gcpus],
        'tasks': [(t.name, t.state, t.vruntime, t.cpu_ns, t.stint_ns,
                   t.spinning)
                  for kernel in kernels for t in kernel.tasks],
    }


def _spinner_at_its_window(queued, spinner_priority, case, reference=False):
    """A PLE machine whose vCPU ``par.v0`` spins on pCPU 0, one ns
    before its window expires, with ``queued`` (priority, co-stopped)
    vCPUs of another VM on pCPU 0's runqueue and ``case`` applied.
    ``reference`` installs :class:`PerWindowPle` with full-switch
    exits instead of the folding monitor."""
    sim = Simulator(seed=1)
    machine = Machine(sim, n_pcpus=2)
    apply_strategy(machine, 'ple')
    if reference:
        machine.ple = PerWindowPle(machine, in_place=False)
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
    expiry = _window_keys(machine)[spinner][0]
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
        reference = _spinner_at_its_window(queued, spinner_priority, case,
                                           reference=True)
        ref_sim, ref_machine, ref_kernel = reference[:3]
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
        assert _snapshot(sim, machine, [kernel]) == _snapshot(
            ref_sim, ref_machine, [ref_kernel])
        if in_place:
            assert pcpu.current is spinner
            windows = machine.guest_ticks.windows
            assert windows[spinner][0] == expiry + 50 * US
        sim.run_until(expiry + 3 * MS)
        ref_sim.run_until(expiry + 3 * MS)
        assert _snapshot(sim, machine, [kernel]) == _snapshot(
            ref_sim, ref_machine, [ref_kernel])


def _fold_machine(params, reference):
    """Three spinners of one VM (``par.v0`` shares pCPU 0 with a hog VM
    that sleeps and wakes) wait on a lock that ``par.v3`` holds for
    ``hold`` and then releases, with a vIRQ at ``virq_at``. A
    ``weight`` other than 1024 makes a spin charge round. Equal
    ``offsets`` start spins at one instant, so their windows share
    their instants. ``reference`` installs :class:`PerWindowPle`
    instead of the folding monitor."""
    sim = Simulator(seed=5)
    machine = Machine(sim, n_pcpus=4)
    apply_strategy(machine, 'ple')
    if reference:
        machine.ple = PerWindowPle(machine)
    vm, kernel = build_vm(sim, machine, 'par', n_vcpus=4,
                          pinning=[0, 1, 2, 3])
    __, hog_kernel = build_vm(sim, machine, 'hog', pinning=[0])
    lock = SpinLock('l')

    def holder():
        while True:
            yield Acquire(lock)
            yield Compute(params['hold'])
            yield Release(lock)
            yield Compute(100 * US)

    def waiter(offset):
        yield Compute(offset)
        while True:
            yield Acquire(lock)
            yield Compute(params['critical'])
            yield Release(lock)
            yield Compute(params['think'])

    def hog():
        while True:
            yield Sleep(params['hog_sleep'])
            yield Compute(params['hog_burst'])
    kernel.spawn('holder', holder(), gcpu_index=3)
    for i, offset in enumerate(params['offsets']):
        kernel.spawn('w%d' % i, waiter(offset), gcpu_index=i,
                     weight=params['weight'])
    hog_kernel.spawn('hog', hog(), gcpu_index=0)
    machine.start()
    target = vm.vcpus[params['virq_vcpu']]

    def virq():
        if params['pend_virq'] and target.is_running:
            # Pended on a running spinner: its next exit is a switch.
            target.pending_virqs.append(VIRQ_TIMER)
        else:
            machine.channels.send_virq(target, VIRQ_TIMER)
    sim.at(params['virq_at'], virq)
    return sim, machine, [kernel, hog_kernel]


_US_STEPS = st.integers(1, 400).map(lambda n: n * 10 * US)


class TestPleFold:
    @settings(max_examples=40, deadline=None)
    @given(params=st.fixed_dictionaries({
               'hold': st.integers(1, 8).map(lambda n: n * MS),
               'critical': _US_STEPS,
               'think': _US_STEPS,
               'offsets': st.one_of(
                   _US_STEPS.map(lambda t: (t, t, t)),
                   st.tuples(_US_STEPS, _US_STEPS).map(
                       lambda p: (p[0], p[0], p[1])),
                   st.tuples(_US_STEPS, _US_STEPS, _US_STEPS)),
               'hog_sleep': st.integers(1, 60).map(lambda n: n * 100 * US),
               'hog_burst': st.integers(1, 30).map(lambda n: n * 100 * US),
               'virq_at': st.integers(1, 25 * MS),
               'virq_vcpu': st.integers(0, 2),
               'weight': st.sampled_from([1024, 1000, 335]),
               'pend_virq': st.booleans()}),
           stops=st.lists(st.one_of(
               st.integers(1, 25 * MS),
               st.integers(1, 500).map(lambda n: n * 50 * US),
               st.integers(1, 500).map(lambda n: n * 50 * US + 1)),
               min_size=1, max_size=4))
    def test_matches_a_window_per_exit(self, params, stops):
        """The folding monitor leaves the machine, at every
        ``run_until`` end, as a monitor that fires and re-arms every
        50 us window does: counters, runstates, slices, vruntimes,
        busy time, min_vruntime, tick times, and the order of every
        pending event and window. The runs cover same-phase spinners, a
        hog waking onto a spinner's pCPU, a vIRQ, lock releases and the
        credit ticks at 10 and 20 ms."""
        sim, machine, kernels = _fold_machine(params, reference=False)
        ref_sim, ref_machine, ref_kernels = _fold_machine(params,
                                                          reference=True)
        for stop in sorted(set(stops)) + [25 * MS]:
            sim.run_until(stop)
            ref_sim.run_until(stop)
            assert _snapshot(sim, machine, kernels) == _snapshot(
                ref_sim, ref_machine, ref_kernels)
        assert sim.trace.counters['ple.exits'] > 0
        assert sim.events_processed < ref_sim.events_processed
