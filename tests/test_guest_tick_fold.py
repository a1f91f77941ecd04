"""The machine's keyed timer folds quiet guest ticks and in-place PLE
exits without changing any result: a machine whose timer settles them
in closed form ends every ``run_until`` exactly as one that fires every
tick and every window as its own event."""

from hypothesis import given, settings, strategies as st

from repro.core import install_irs
from repro.experiments import apply_strategy
from repro.guestos.loadavg import RtAvgTracker
from repro.hypervisor import Machine, PleMonitor
from repro.simkernel import Simulator
from repro.simkernel.units import MS, SEC, US
from repro.workloads import Acquire, Compute, Release, Sleep, SpinLock

from conftest import PerTickTimer, PerWindowPle, build_vm


def _tick_handles(ticks):
    """gCPU -> the event of its next tick, for a timer that has one per
    tick: the reference, or a timer that does not fold."""
    if isinstance(ticks, PerTickTimer):
        return ticks.handles
    return ticks.events or {}


def _held_keys(handles, keys):
    """Owner -> ``(time, seq)`` of its pending handle or held key."""
    held = {owner: (h.time, h.seq) for owner, h in handles.items()
            if h.pending}
    held.update((owner, (t, s)) for owner, (t, s, *__) in keys.items())
    return held


def _window_keys(machine):
    ple = machine.ple
    if isinstance(ple, PerWindowPle):
        return _held_keys(ple.handles, {})
    return _held_keys({}, machine.guest_ticks.windows)


def _tick_keys(ticks):
    return _held_keys(_tick_handles(ticks),
                      {} if isinstance(ticks, PerTickTimer) else ticks.keys)


def _next_events(sim, machines):
    """Every pending event, PLE window and guest tick in firing order,
    as ``(time, what)``; tick and window events and the keyed timers'
    own events stand for their keys and are left out."""
    keyed = []
    folding = set()
    handled = set()
    for machine in machines:
        ple = machine.ple
        ticks = machine.guest_ticks
        folding.add(ticks)
        handled.update(map(id, _tick_handles(ticks).values()))
        keyed += [(t, s, ('guest tick', gcpu.name))
                  for gcpu, (t, s) in _tick_keys(ticks).items()]
        if ple is not None:
            if isinstance(ple, PerWindowPle):
                handled.update(map(id, ple.handles.values()))
            keyed += [(t, s, ('ple window', vcpu.name))
                      for vcpu, (t, s) in _window_keys(machine).items()]
    for event in sim._queue.peek_events(len(sim._queue._heap)):
        owner = getattr(event.callback, '__self__', None)
        if owner in folding or id(event) in handled:
            continue
        keyed.append((event.time, event.seq, (
            event.callback.__qualname__,
            tuple(getattr(a, 'name', type(a).__name__)
                  for a in event.args))))
    return [(t, what) for t, __, what in sorted(keyed)]


def _snapshot(sim, machines, kernels):
    return {
        'now': sim.now,
        'next': _next_events(sim, machines),
        'counters': {name: n for name, n in sim.trace.counters.items()
                     if not name.startswith('sanitizer.')},
        'vcpus': [(v.name, v.runstate, v.run_ns, v.steal_ns, v.preemptions,
                   v.credits)
                  for machine in machines for vm in machine.vms
                  for v in vm.vcpus],
        'gcpus': [(g.name, g.tick_count, g.rt.value.hex(), g.busy_ns,
                   g.rq.min_vruntime, g.run_started_at, g.in_sa_handler)
                  for kernel in kernels for g in kernel.gcpus],
        'tasks': [(t.name, t.state, t.vruntime, t.cpu_ns, t.stint_ns,
                   t.remaining_ns, t.spinning)
                  for kernel in kernels for t in kernel.tasks],
    }


def _machine(params, reference):
    """A 4-vCPU VM on 4 pCPUs and a bursty hog VM sharing one pCPU:
    par.cpu0 computes segments of a drawn length, par.cpu1 holds a spin
    lock that par.cpu2 spins for (under PLE or not), and par.cpu3 runs
    a hog with ``queued`` more tasks ready behind it, so the others'
    balance ticks find a sibling with 0, 1 or 2 ready tasks. With
    ``irs`` the hog's wakes preempt a par vCPU through an SA upcall.
    ``reference`` installs :class:`PerTickTimer` (and, with PLE,
    :class:`PerWindowPle`)."""
    sim = Simulator(seed=11)
    machine = Machine(sim, n_pcpus=4)
    if reference:
        machine.guest_ticks = PerTickTimer(machine)
    if params['ple']:
        apply_strategy(machine, 'ple')
        if reference:
            machine.ple = PerWindowPle(machine)
    __, kernel = build_vm(sim, machine, 'par', n_vcpus=4,
                          pinning=[0, 1, 2, 3])
    __, hog_kernel = build_vm(sim, machine, 'hog',
                              pinning=[params['hog_pcpu']])
    if params['irs']:
        install_irs(machine, [kernel])
    lock = SpinLock('l')

    def segments():
        while True:
            yield Compute(params['segment'])

    def holder():
        while True:
            yield Acquire(lock)
            yield Compute(params['hold'])
            yield Release(lock)
            yield Compute(params['think'])

    def waiter():
        yield Compute(params['offset'])
        while True:
            yield Acquire(lock)
            yield Compute(100 * US)
            yield Release(lock)
            yield Compute(params['think'])

    def busy():
        while True:
            yield Compute(10 * MS)

    def bursty():
        while True:
            yield Sleep(params['hog_sleep'])
            yield Compute(params['hog_burst'])
    kernel.spawn('segments', segments(), gcpu_index=0,
                 weight=params['weight'])
    kernel.spawn('holder', holder(), gcpu_index=1)
    kernel.spawn('waiter', waiter(), gcpu_index=2)
    kernel.spawn('busy', busy(), gcpu_index=3)
    for i in range(params['queued']):
        kernel.spawn('queued%d' % i, busy(), gcpu_index=3)
    hog_kernel.spawn('hog', bursty(), gcpu_index=0)
    machine.start()
    return sim, machine, [kernel, hog_kernel]


def _second_machine(sim, reference):
    """Another machine on ``sim``, started now, whose one vCPU runs a
    task that computes and sleeps, so its guest ticks too."""
    machine = Machine(sim, n_pcpus=1)
    if reference:
        machine.guest_ticks = PerTickTimer(machine)
    __, kernel = build_vm(sim, machine, 'other', pinning=[0])

    def cycle():
        while True:
            yield Compute(7 * MS + 300 * US)
            yield Sleep(2 * MS)
    kernel.spawn('other', cycle(), gcpu_index=0)
    machine.start()
    return machine, kernel


_US_STEPS = st.integers(1, 400).map(lambda n: n * 10 * US)
_PARAMS = st.fixed_dictionaries({
    'ple': st.booleans(),
    'irs': st.booleans(),
    'segment': st.integers(50, 8000).map(lambda n: n * US),
    'hold': st.integers(1, 12).map(lambda n: n * MS),
    'think': _US_STEPS,
    'offset': _US_STEPS,
    'queued': st.integers(0, 2),
    'weight': st.sampled_from([1024, 1000, 335]),
    'hog_pcpu': st.integers(0, 3),
    'hog_sleep': st.integers(1, 80).map(lambda n: n * 100 * US),
    'hog_burst': st.integers(1, 40).map(lambda n: n * 100 * US)})
_STOPS = st.lists(st.one_of(
    st.integers(1, 40 * MS),
    st.integers(1, 40).map(lambda n: n * MS),
    st.integers(1, 40).map(lambda n: n * MS + 1),
    st.integers(1, 40).map(lambda n: n * MS - 1)),
    min_size=1, max_size=5)


class TestTickFold:
    @settings(max_examples=40, deadline=None)
    @given(params=_PARAMS, stops=_STOPS)
    def test_matches_a_tick_per_event(self, params, stops):
        """The folding timer leaves both machines, at every
        ``run_until`` end, with the same tick counts, ``rt_avg`` bits,
        busy times, min_vruntime floors, task charges and remaining
        compute, counters, runstates, and order of every next event,
        tick and window, over hogs, compute segments that end between
        ticks, spinners with and without PLE, balance ticks beside a
        sibling with 0, 1 or 2 ready tasks, SA upcalls and ends on and
        off the tick grid."""
        sim, machine, kernels = _machine(params, reference=False)
        ref_sim, ref_machine, ref_kernels = _machine(params, reference=True)
        for stop in sorted(set(stops)) + [45 * MS]:
            sim.run_until(stop)
            ref_sim.run_until(stop)
            assert _snapshot(sim, [machine], kernels) == _snapshot(
                ref_sim, [ref_machine], ref_kernels)
        assert sim.events_processed <= ref_sim.events_processed


class TestSharedSimulator:
    @settings(max_examples=25, deadline=None)
    @given(params=_PARAMS, join=st.integers(0, 30 * MS), stops=_STOPS)
    def test_a_later_machine_leaves_results_as_a_tick_per_event(
            self, params, join, stops):
        """A second machine made on the simulator mid-run, whose ticks
        are each their own event, leaves the first one's timer folding
        (its mode is fixed when it is built: a fold never passes the
        next live event, the other machine's ticks included), and from
        then on both machines end every ``run_until`` exactly as with a
        tick per event throughout."""
        sim, machine, kernels = _machine(params, reference=False)
        ref_sim, ref_machine, ref_kernels = _machine(params, reference=True)
        sim.run_until(join)
        ref_sim.run_until(join)
        other, other_kernel = _second_machine(sim, reference=False)
        ref_other, ref_other_kernel = _second_machine(ref_sim,
                                                      reference=True)
        assert machine.shares_simulator and other.shares_simulator
        assert machine.guest_ticks.events is None
        assert other.guest_ticks.events is not None
        machines, ref_machines = [machine, other], [ref_machine, ref_other]
        kernels.append(other_kernel)
        ref_kernels.append(ref_other_kernel)
        assert _snapshot(sim, machines, kernels) == _snapshot(
            ref_sim, ref_machines, ref_kernels)
        for stop in sorted({s for s in stops if s > join}) + [45 * MS]:
            sim.run_until(stop)
            ref_sim.run_until(stop)
            assert _snapshot(sim, machines, kernels) == _snapshot(
                ref_sim, ref_machines, ref_kernels)


def _spinners(params, reference):
    """A 4-vCPU VM on 4 pCPUs: ``par.cpu3`` holds a spin lock for
    ``hold`` at a time, and ``par.cpu0``-``cpu2`` take it in turn, each
    starting at its drawn offset, so up to three spin at once under PLE
    windows of ``window``. Every start lies on the 50 us grid, so the
    holder's ticks share instants with the windows. A hog VM on a
    spinner's pCPU wakes onto it, and its boost makes that spinner's
    next window a directed yield. ``reference`` installs
    :class:`PerTickTimer` and :class:`PerWindowPle`."""
    sim = Simulator(seed=7)
    machine = Machine(sim, n_pcpus=4)
    if reference:
        machine.guest_ticks = PerTickTimer(machine)
        machine.ple = PerWindowPle(machine, window_ns=params['window'])
    else:
        machine.ple = PleMonitor(sim, machine, window_ns=params['window'])
    __, kernel = build_vm(sim, machine, 'par', n_vcpus=4,
                          pinning=[0, 1, 2, 3])
    __, hog_kernel = build_vm(sim, machine, 'hog',
                              pinning=[params['hog_pcpu']])
    lock = SpinLock('l')

    def holder():
        while True:
            yield Acquire(lock)
            yield Compute(params['hold'])
            yield Release(lock)
            yield Compute(params['gap'])

    def waiter(offset):
        yield Compute(offset)
        while True:
            yield Acquire(lock)
            yield Compute(params['critical'])
            yield Release(lock)
            yield Compute(params['think'])

    def bursty():
        while True:
            yield Sleep(params['hog_sleep'])
            yield Compute(params['hog_burst'])
    kernel.spawn('holder', holder(), gcpu_index=3)
    for i, offset in enumerate(params['offsets']):
        kernel.spawn('w%d' % i, waiter(offset), gcpu_index=i)
    hog_kernel.spawn('hog', bursty(), gcpu_index=0)
    machine.start()
    return sim, machine, [kernel, hog_kernel]


_GRID = st.integers(1, 40).map(lambda n: n * 50 * US)


class TestMergedFold:
    @settings(max_examples=40, deadline=None)
    @given(params=st.fixed_dictionaries({
               'window': st.sampled_from([50 * US, 50 * US, 50 * US,
                                          1 * MS]),
               'hold': st.integers(1, 6).map(lambda n: n * MS),
               'gap': _GRID,
               'critical': _GRID,
               'think': _GRID,
               'offsets': st.one_of(
                   _GRID.map(lambda t: (t, t)),
                   st.lists(_GRID, min_size=2, max_size=3).map(tuple)),
               'hog_pcpu': st.integers(0, 2),
               'hog_sleep': st.integers(1, 60).map(lambda n: n * 100 * US),
               'hog_burst': st.integers(1, 30).map(lambda n: n * 100 * US)}),
           stops=st.lists(st.one_of(
               st.integers(1, 500).map(lambda n: n * 50 * US),
               st.integers(1, 500).map(lambda n: n * 50 * US + 1),
               st.integers(1, 25).map(lambda n: n * MS),
               st.integers(1, 25).map(lambda n: n * MS - 1)),
               min_size=1, max_size=5))
    def test_matches_a_tick_and_a_window_per_event(self, params, stops):
        """One timer folding ticks and windows in one pass leaves the
        machine, at every ``run_until`` end on or one ns off either
        grid, as per-event ticks and windows do: tick counts,
        ``rt_avg`` bits, charges, counters, runstates and the order of
        every next event, tick and window, with two or three spinners,
        a holder ticking at window instants, failing windows and, with
        1 ms windows, windows no shorter than a tick."""
        sim, machine, kernels = _spinners(params, reference=False)
        ref_sim, ref_machine, ref_kernels = _spinners(params, reference=True)
        for stop in sorted(set(stops)) + [25 * MS]:
            sim.run_until(stop)
            ref_sim.run_until(stop)
            assert _snapshot(sim, [machine], kernels) == _snapshot(
                ref_sim, [ref_machine], ref_kernels)
        # A spin shorter than a 1 ms window may never exit.
        assert params['window'] > 50 * US or (
            sim.trace.counters['ple.exits'] > 0)
        assert sim.events_processed < ref_sim.events_processed

    def test_spinners_fire_fewer_events_than_a_busy_gcpu_ticks(self):
        """Two spinners exit every 50 us beside a gCPU that computes for
        20 ms: the one timer folds the busy gCPU's ticks past the
        windows and the windows past the ticks, so it fires fewer times
        than that gCPU ticks."""
        params = {'window': 50 * US, 'hold': 1 * SEC, 'gap': 50 * US,
                  'critical': 50 * US, 'think': 50 * US,
                  'offsets': (100 * US, 100 * US), 'hog_pcpu': 0,
                  'hog_sleep': 1 * SEC, 'hog_burst': 50 * US}
        sim, machine, kernels = _spinners(params, reference=False)
        timer = machine.guest_ticks
        fired = []
        sim.add_post_event_hook(
            lambda event: fired.append(event.callback == timer._fire))
        sim.run_until(20 * MS)
        busy = kernels[0].gcpus[3]
        assert busy.tick_count == 20
        assert sim.trace.counters['ple.exits'] >= 2 * 390
        assert sum(fired) < busy.tick_count


def _hogs(n_vcpus=4):
    sim = Simulator(seed=3)
    machine = Machine(sim, n_pcpus=n_vcpus)
    __, kernel = build_vm(sim, machine, 'h', n_vcpus=n_vcpus,
                          pinning=list(range(n_vcpus)))
    for i in range(n_vcpus):
        kernel.spawn('h%d' % i, [Compute(1 * SEC)] * 10)
    machine.start()
    return sim, machine, kernel


class TestQuietTicks:
    def test_runs_of_quiet_ticks_fire_one_event_each(self):
        """Four hogs tick 4000 times in a second. Each run of quiet
        ticks between two credit-scheduler events costs one event."""
        sim, machine, kernel = _hogs()
        events = sim.run_until(1 * SEC)
        assert [g.tick_count for g in kernel.gcpus] == [1000] * 4
        # 100 credit ticks per pCPU and 33 accounting periods fire live.
        assert events < 4 * 100 + 33 + 4 * 150

    def test_outside_run_until_every_tick_fires(self):
        """``step`` lets a caller act between any two events, so no tick
        is applied before its instant."""
        sim, machine, kernel = _hogs()
        while sim.now < 50 * MS:
            sim.step()
            for gcpu in kernel.gcpus:
                assert gcpu.run_started_at <= sim.now
        assert sum(g.tick_count for g in kernel.gcpus) >= 4 * 49

    def test_stop_ends_the_fold_at_the_stopping_event(self):
        """A caller acts after :meth:`Simulator.stop`, so the tick timer
        settles nothing past the event that stopped the run."""
        sim, machine, kernel = _hogs()
        sim.at(30 * MS + 500 * US, sim.stop)
        sim.run_until(1 * SEC)
        assert sim.now == 30 * MS + 500 * US
        assert [g.tick_count for g in kernel.gcpus] == [30] * 4
        for gcpu in kernel.gcpus:
            assert gcpu.run_started_at <= sim.now


class TestRtAvgFoldPeriods:
    @settings(max_examples=50, deadline=None)
    @given(value=st.floats(0.0, 1.0), count=st.integers(1, 40),
           period=st.sampled_from([1 * MS, 250 * US, 4 * MS]))
    def test_fold_periods_has_the_bits_of_one_update_per_period(
            self, value, count, period):
        sim, machine, kernel = _hogs(n_vcpus=1)
        sim.run_until(5 * MS)
        gcpu = kernel.gcpus[0]
        folded = RtAvgTracker(gcpu.vcpu, sim)
        stepped = RtAvgTracker(gcpu.vcpu, sim)
        for rt in (folded, stepped):
            rt.value = value
            rt.update(sim.now)
        start = sim.now
        folded.fold_periods(period, count)
        for k in range(1, count + 1):
            stepped.update(start + k * period)
        assert folded.value.hex() == stepped.value.hex()
        assert (folded._last_time, folded._last_run) == (
            stepped._last_time, stepped._last_run)
