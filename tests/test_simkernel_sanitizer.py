"""Unit tests for the runtime scheduler sanitizer."""

import pytest

from repro.simkernel import (
    Sanitizer,
    SanitizerError,
    Simulator,
    install_sanitizer,
)
from repro.simkernel.units import MS, SEC

from conftest import build_machine, build_vm
from repro.workloads import Compute


def hog():
    while True:
        yield Compute(5 * MS)


def sanitized_machine(mode='raise', interval=1):
    sim = Simulator(seed=3)
    sanitizer = install_sanitizer(sim, interval=interval, mode=mode)
    machine = build_machine(sim, 2)
    __, kernel = build_vm(sim, machine, 'fg', n_vcpus=2, pinning=[0, 1])
    return sim, sanitizer, machine, kernel


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

        def corrupting_update():
            # Runs inside TickDriver._on_tick, after it re-armed itself.
            if not fired_at:
                fired_at.append(sim.now)
                self._double_dispatch(kernel)
            return update()
        gcpu.rt.update = corrupting_update
        with pytest.raises(SanitizerError) as err:
            sim.run_until(sim.now + 10 * MS)
        violation = err.value.violation
        assert violation.time == fired_at[0]
        assert violation.event == (
            'TickDriver._on_tick fired at t=%d' % fired_at[0])
        # The handle itself already shows the next period.
        assert gcpu.tick_event.pending
        assert gcpu.tick_event.time > fired_at[0]

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

    def test_clock_regression_detected(self):
        sim = Simulator()
        sanitizer = install_sanitizer(sim, mode='collect')
        sim.run_until(100)
        sanitizer._last_now = 500                # as if time had been there
        sanitizer.check_now()
        assert any(v.invariant == 'clock_monotonic'
                   for v in sanitizer.violations)
