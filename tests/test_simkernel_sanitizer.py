"""Unit tests for the runtime scheduler sanitizer."""

import pytest

from repro.simkernel import (
    Sanitizer,
    SanitizerError,
    Simulator,
    install_sanitizer,
)
from repro.experiments import apply_strategy
from repro.simkernel.units import MS, SEC, US

from conftest import build_machine, build_vm
from repro.workloads import Acquire, Compute, Release, SpinLock


def hog():
    while True:
        yield Compute(5 * MS)


def sanitized_machine(mode='raise', interval=1):
    sim = Simulator(seed=3)
    sanitizer = install_sanitizer(sim, interval=interval, mode=mode)
    machine = build_machine(sim, 2)
    __, kernel = build_vm(sim, machine, 'fg', n_vcpus=2, pinning=[0, 1])
    return sim, sanitizer, machine, kernel


def spinning_machine():
    """A collecting sanitizer on a PLE machine, 2 ms in: ``fg.v0`` spins
    in place for the lock ``fg.v1`` holds. Returns the spinner too."""
    sim = Simulator(seed=3)
    sanitizer = install_sanitizer(sim, mode='collect')
    machine = build_machine(sim, 2)
    apply_strategy(machine, 'ple')
    vm, kernel = build_vm(sim, machine, 'fg', n_vcpus=2, pinning=[0, 1])
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
    sim.run_until(2 * MS)
    return sim, sanitizer, machine, vm.vcpus[0]


class TestWiring:
    def test_machine_attaches_itself(self):
        sim, sanitizer, machine, __ = sanitized_machine()
        assert machine in sanitizer.machines

    def test_interval_and_mode_validated(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Sanitizer(sim, interval=0)
        with pytest.raises(ValueError):
            Sanitizer(sim, mode='whatever')

    def test_uninstall_detaches_hook(self):
        sim, sanitizer, machine, kernel = sanitized_machine()
        machine.start()
        sim.run_until(10 * MS)
        checks = sanitizer.checks
        sanitizer.uninstall()
        assert sim.sanitizer is None
        sim.run_until(20 * MS)
        assert sanitizer.checks == checks

    def test_reinstall_replaces_and_keeps_machines(self):
        sim, first, machine, __ = sanitized_machine()
        second = install_sanitizer(sim, mode='collect')
        assert sim.sanitizer is second
        assert machine in second.machines

    def test_interval_spaces_checks(self):
        sim = Simulator()
        sanitizer = install_sanitizer(sim, interval=10)
        for t in range(25):
            sim.at(t, lambda: None)
        sim.run_until_idle()
        assert sanitizer.checks == 2


class TestCleanRuns:
    def test_busy_machine_reports_no_violations(self):
        sim, sanitizer, machine, kernel = sanitized_machine()
        kernel.spawn('a', hog(), gcpu_index=0)
        kernel.spawn('b', hog(), gcpu_index=0)
        kernel.spawn('c', hog(), gcpu_index=1)
        machine.start()
        sim.run_until(1 * SEC)
        assert sanitizer.checks > 0
        assert not sanitizer.violations
        sanitizer.assert_clean()
        assert 'no violations' in sanitizer.report()
        assert sim.trace.counters['sanitizer.checks'] == sanitizer.checks


class TestCatchesCorruption:
    def _double_dispatch(self, kernel):
        """The intentional bug: one task current on two guest CPUs."""
        task = kernel.gcpus[0].current
        kernel.gcpus[1].current = task
        return task

    def test_double_dispatch_raises_naming_the_event(self):
        sim, sanitizer, machine, kernel = sanitized_machine()
        kernel.spawn('a', hog(), gcpu_index=0)
        kernel.spawn('b', hog(), gcpu_index=1)
        machine.start()
        sim.run_until(10 * MS)
        task = self._double_dispatch(kernel)
        with pytest.raises(SanitizerError) as err:
            sim.run_until(sim.now + 10 * MS)
        violation = err.value.violation
        assert violation.invariant == 'one_task_per_vcpu'
        assert 'double dispatch' in violation.message
        assert task.name in violation.message
        # The report names the event whose processing exposed the bug.
        assert violation.event != '<initial state>'
        assert 'breaking event' in err.value.violation.format()

    def test_violation_in_rearmed_tick_names_its_firing_instant(self):
        sim, sanitizer, machine, kernel = sanitized_machine()
        kernel.spawn('a', hog(), gcpu_index=0)
        kernel.spawn('b', hog(), gcpu_index=1)
        machine.start()
        sim.run_until(10 * MS)
        gcpu = kernel.gcpus[0]
        fired_at = []
        update = gcpu.rt.update

        def corrupting_update(now=None):
            # Runs inside the timer's _fire, after it re-keyed the tick.
            if not fired_at:
                fired_at.append(sim.now)
                self._double_dispatch(kernel)
            return update(now)
        gcpu.rt.update = corrupting_update
        with pytest.raises(SanitizerError) as err:
            sim.run_until(sim.now + 10 * MS)
        violation = err.value.violation
        assert violation.time == fired_at[0]
        assert violation.event == (
            'TickTimer._fire fired at t=%d' % fired_at[0])
        # The timer, and this gCPU's own key, already show the next tick.
        timer = machine.guest_ticks
        assert timer.event.pending
        assert timer.event.time > fired_at[0]
        assert timer.keys[gcpu][0] > fired_at[0]

    def test_collect_mode_accumulates_report(self):
        sim, sanitizer, machine, kernel = sanitized_machine(mode='collect')
        kernel.spawn('a', hog(), gcpu_index=0)
        kernel.spawn('b', hog(), gcpu_index=1)
        machine.start()
        sim.run_until(10 * MS)
        self._double_dispatch(kernel)
        sim.run_until(sim.now + 1 * MS)
        assert sanitizer.violations
        assert 'violation(s)' in sanitizer.report()
        with pytest.raises(SanitizerError):
            sanitizer.assert_clean()

    def test_queued_and_running_task_detected(self):
        sim, sanitizer, machine, kernel = sanitized_machine(mode='collect')
        kernel.spawn('a', hog(), gcpu_index=0)
        kernel.spawn('b', hog(), gcpu_index=0)
        machine.start()
        sim.run_until(10 * MS)
        gcpu = kernel.gcpus[0]
        task = gcpu.current                    # corrupt: current re-queued
        gcpu.rq._entries.append((task.vruntime, task.tid, task))
        sanitizer.check_now()
        assert any(v.invariant in ('one_task_per_vcpu',
                                   'no_task_queued_and_running')
                   for v in sanitizer.violations)

    @pytest.mark.parametrize('corruption', ['past', 'descheduled'])
    def test_stray_timer_handle_detected(self, corruption):
        sim, sanitizer, machine, kernel = sanitized_machine(mode='collect')
        kernel.spawn('a', hog(), gcpu_index=0)
        machine.start()
        sim.run_until(10 * MS)
        sanitizer.check_now()
        assert sanitizer.violations == []
        gcpu = kernel.gcpus[0]
        tick = machine.guest_ticks.keys[gcpu]
        assert machine.guest_ticks.event.pending
        if corruption == 'past':
            tick[0] = sim.now - 1
            expected = 'before now'
        else:
            gcpu.vcpu.set_runstate('runnable', sim.now)
            expected = 'its vCPU is runnable'
        sanitizer.check_now()
        stray = [v.message for v in sanitizer.violations
                 if v.invariant == 'timer_fold']
        assert expected in stray[0] and 'tick' in stray[0]
        # A tick moved before now also moves before the timer's event.
        assert len(stray) == (2 if corruption == 'past' else 1)
        assert corruption != 'past' or 'not at the earliest' in stray[1]
        # A descheduled vCPU strands its pending quantum as well.
        quantum = [v.message for v in sanitizer.violations
                   if v.invariant == 'timer_handles']
        assert len(quantum) == (1 if corruption == 'descheduled' else 0)
        assert all('quantum pending on runnable vCPU' in message
                   for message in quantum)

    @pytest.mark.parametrize('corruption', ['past', 'not spinning',
                                            'no event', 'spinner ahead',
                                            'tick ahead'])
    def test_stray_window_detected(self, corruption):
        """A PLE window is a key of the same timer as the ticks, and the
        one ``timer_fold`` invariant checks both."""
        sim, sanitizer, machine, spinner = spinning_machine()
        sanitizer.check_now()
        assert sanitizer.violations == []
        timer = machine.guest_ticks
        window = timer.windows[spinner]
        live = min(entry[0] for entry in sim._queue._heap
                   if entry[1] == entry[2].seq)
        if corruption == 'past':
            window[0] = sim.now - 1
            expected = ['PLE window at t=%d, before now' % (sim.now - 1),
                        'not at the earliest']
        elif corruption == 'not spinning':
            spinner.gcpu.current.spinning = False
            expected = ['fg.v0 has a PLE window but is running']
        elif corruption == 'no event':
            timer.event.cancel()
            expected = ['timer event not pending while 3 keys are held']
        elif corruption == 'spinner ahead':
            spinner.runstate_since = live + 1
            expected = ['fg.v0 ticks or exits applied up to t=%d, past the '
                        'next live event at t=%d' % (live + 1, live)]
        else:
            holder = machine.vms[0].vcpus[1].gcpu
            holder.run_started_at = live + 1
            expected = ['%s ticks or exits applied up to t=%d'
                        % (holder.name, live + 1)]
        sanitizer.check_now()
        stray = [v.message for v in sanitizer.violations
                 if v.invariant == 'timer_fold']
        assert len(stray) == len(expected)
        for message, part in zip(stray, expected):
            assert part in message

    @pytest.mark.parametrize('corruption', ['past', 'descheduled'])
    def test_stray_tick_event_detected_beside_another_machine(
            self, corruption):
        """On a machine that shares its simulator when its first guest
        binds (a cluster builds every host first) every tick is its own
        event, checked as a timer handle."""
        sim = Simulator(seed=3)
        sanitizer = install_sanitizer(sim, mode='collect')
        machine = build_machine(sim, 2)
        build_vm(sim, build_machine(sim, 1), 'other', pinning=[0])
        __, kernel = build_vm(sim, machine, 'fg', n_vcpus=2, pinning=[0, 1])
        kernel.spawn('a', hog(), gcpu_index=0)
        machine.start()
        sim.run_until(10 * MS)
        sanitizer.check_now()
        assert sanitizer.violations == []
        gcpu = kernel.gcpus[0]
        assert machine.guest_ticks.keys == {}
        tick = machine.guest_ticks.events[gcpu]
        assert tick.pending
        if corruption == 'past':
            tick.time = sim.now - 1
            expected = 'before now'
        else:
            gcpu.vcpu.set_runstate('runnable', sim.now)
            expected = 'on runnable vCPU'
        sanitizer.check_now()
        stray = [v.message for v in sanitizer.violations
                 if v.invariant == 'timer_handles']
        # A descheduled vCPU strands its pending quantum as well.
        assert len(stray) == (2 if corruption == 'descheduled' else 1)
        assert expected in stray[0] and 'tick' in stray[0]

    def test_clock_regression_detected(self):
        sim = Simulator()
        sanitizer = install_sanitizer(sim, mode='collect')
        sim.run_until(100)
        sanitizer._last_now = 500                # as if time had been there
        sanitizer.check_now()
        assert any(v.invariant == 'clock_monotonic'
                   for v in sanitizer.violations)
