"""Shared test fixtures and builders.

Set ``REPRO_SANITIZER=1`` to run any test selection with the runtime
scheduler sanitizer (:mod:`repro.simkernel.sanitizer`) hooked into
every simulator at every event — the ``pytest -m sanitizer`` job does
exactly that for the whole suite.
"""

import os

import pytest

from repro.guestos import GuestKernel
from repro.hypervisor import Machine, VM
from repro.simkernel import Simulator, install_sanitizer
from repro.simkernel.units import MS, SEC, US

SANITIZE = os.environ.get('REPRO_SANITIZER', '') not in ('', '0')


@pytest.fixture(autouse=SANITIZE)
def _runtime_sanitizer(monkeypatch):
    """With REPRO_SANITIZER=1, every Simulator a test builds gets a
    raise-mode sanitizer checking invariants after each event."""
    original = Simulator.__init__

    def sanitized(self, *args, **kwargs):
        original(self, *args, **kwargs)
        install_sanitizer(self)

    monkeypatch.setattr(Simulator, '__init__', sanitized)
    yield


@pytest.fixture
def sim():
    return Simulator(seed=42)


def build_machine(sim, n_pcpus=1):
    return Machine(sim, n_pcpus=n_pcpus)


def build_vm(sim, machine, name='vm', n_vcpus=1, pinning=None):
    vm = VM(name, n_vcpus, sim)
    machine.add_vm(vm, pinning=pinning)
    kernel = GuestKernel(sim, vm, machine)
    return vm, kernel


def single_vm_machine(sim, n_pcpus=1, n_vcpus=1, pinning=None):
    """One machine, one VM pinned 1:1 by default."""
    machine = build_machine(sim, n_pcpus)
    if pinning is None and n_vcpus <= n_pcpus:
        pinning = list(range(n_vcpus))
    vm, kernel = build_vm(sim, machine, n_vcpus=n_vcpus, pinning=pinning)
    machine.start()
    return machine, vm, kernel


def run_for(sim, duration_ns):
    sim.run_until(sim.now + duration_ns)


# Reference timers: one event per guest tick and per PLE window, as
# both worked before the machine's keyed timer folded them. A machine
# with both installed fires every tick and window as its own event.

class PerTickTimer:
    """Reference tick timer: one event per running gCPU, re-armed every
    tick through public calls, as guest ticks worked before the timer
    folded them."""

    def __init__(self, machine):
        self.sim = machine.sim
        self.handles = {}

    def arm(self, gcpu):
        handle = self.handles.get(gcpu)
        if handle is None or not handle.pending:
            self.handles[gcpu] = self.sim.rearm(
                handle, gcpu.kernel.ticks.tick_ns, self.fire, gcpu)

    def restart_at(self, gcpu, start):
        handle = self.handles.get(gcpu)
        if handle is not None:
            handle.cancel()
        self.handles[gcpu] = self.sim.rearm(
            handle, start + gcpu.kernel.ticks.tick_ns - self.sim.now,
            self.fire, gcpu)

    def disarm(self, gcpu):
        handle = self.handles.get(gcpu)
        if handle is not None:
            handle.cancel()

    def fire(self, gcpu):
        if not gcpu.vcpu.is_running or gcpu.in_sa_handler:
            return
        ticks = gcpu.kernel.ticks
        self.sim.again(ticks.tick_ns)
        ticks.tick(gcpu, self.sim.now)


class PerWindowPle:
    """Reference PLE monitor: one timer event per spinning vCPU,
    re-armed every window through public calls, as the monitor worked
    before it folded windows. ``in_place=False`` makes every exit the
    full switch (``force_yield``), whose re-picked spinner re-arms its
    window through ``on_spin_start``."""

    def __init__(self, machine, in_place=True, window_ns=50 * US):
        self.sim = machine.sim
        self.machine = machine
        self.in_place = in_place
        self.window_ns = window_ns
        self.handles = {}

    def on_spin_start(self, vcpu):
        handle = self.handles.get(vcpu)
        if handle is None or not handle.pending:
            self.handles[vcpu] = self.sim.rearm(
                handle, self.window_ns, self.expired, vcpu)

    def on_spin_stop(self, vcpu):
        handle = self.handles.get(vcpu)
        if handle is not None:
            handle.cancel()

    def expired(self, vcpu):
        if not vcpu.is_running:
            return
        self.sim.trace.count('ple.exits')
        scheduler = self.machine.scheduler
        if self.in_place and scheduler.can_yield_in_place(vcpu):
            scheduler.yield_in_place(vcpu, self.sim.now)
            self.sim.again(self.window_ns)
        else:
            scheduler.force_yield(vcpu)


__all__ = ['build_machine', 'build_vm', 'single_vm_machine', 'run_for',
           'PerTickTimer', 'PerWindowPle', 'MS', 'SEC']
