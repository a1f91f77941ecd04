"""Behavioural tests for the guest kernel execution engine."""

import pytest

from repro.guestos.interp import MAX_ZERO_TIME_ACTIONS
from repro.guestos.task import TASK_EXITED, TASK_SLEEPING
from repro.simkernel import Simulator
from repro.simkernel.units import MS, SEC, US
from repro.workloads import (
    Acquire,
    actions,
    Barrier,
    BarrierWait,
    BoundedQueue,
    Compute,
    Mutex,
    QueueGet,
    QueuePut,
    Release,
    Sleep,
    SpinLock,
)

from conftest import single_vm_machine


class TestBasicExecution:
    def test_compute_takes_exact_time(self, sim):
        machine, vm, kernel = single_vm_machine(sim)
        done = []
        kernel.spawn('t', iter([Compute(7 * MS)]),
                     on_exit=lambda t, now: done.append(now))
        sim.run_until(1 * SEC)
        assert done == [7 * MS]

    def test_sequential_actions_accumulate(self, sim):
        machine, vm, kernel = single_vm_machine(sim)
        done = []
        kernel.spawn('t', iter([Compute(3 * MS), Compute(4 * MS)]),
                     on_exit=lambda t, now: done.append(now))
        sim.run_until(1 * SEC)
        assert done == [7 * MS]

    def test_task_cpu_accounting(self, sim):
        machine, vm, kernel = single_vm_machine(sim)
        task = kernel.spawn('t', iter([Compute(5 * MS)]))
        sim.run_until(1 * SEC)
        assert task.cpu_ns == 5 * MS
        assert task.state == TASK_EXITED

    def test_two_tasks_share_one_vcpu_fairly(self, sim):
        machine, vm, kernel = single_vm_machine(sim)

        def spin_forever():
            while True:
                yield Compute(1 * MS)
        a = kernel.spawn('a', spin_forever(), gcpu_index=0)
        b = kernel.spawn('b', spin_forever(), gcpu_index=0)
        sim.run_until(1 * SEC)
        assert abs(a.cpu_ns - b.cpu_ns) < 100 * MS
        assert a.cpu_ns + b.cpu_ns > 990 * MS

    def test_zero_compute_is_legal(self, sim):
        machine, vm, kernel = single_vm_machine(sim)
        done = []
        kernel.spawn('t', iter([Compute(0), Compute(1 * MS)]),
                     on_exit=lambda t, now: done.append(now))
        sim.run_until(1 * SEC)
        assert done == [1 * MS]


class TestSleep:
    def test_sleep_duration(self, sim):
        machine, vm, kernel = single_vm_machine(sim)
        done = []
        kernel.spawn('t', iter([Compute(1 * MS), Sleep(10 * MS),
                                Compute(1 * MS)]),
                     on_exit=lambda t, now: done.append(now))
        sim.run_until(1 * SEC)
        assert done == [12 * MS]

    def test_sleeping_task_burns_no_cpu(self, sim):
        machine, vm, kernel = single_vm_machine(sim)
        task = kernel.spawn('t', iter([Sleep(50 * MS)]))
        sim.run_until(1 * SEC)
        assert task.cpu_ns == 0

    def test_vcpu_blocks_while_all_sleep(self, sim):
        machine, vm, kernel = single_vm_machine(sim)
        kernel.spawn('t', iter([Sleep(100 * MS), Compute(1 * MS)]))
        sim.run_until(50 * MS)
        assert vm.vcpus[0].is_blocked

    def test_repeated_sleep_cycles(self, sim):
        """Regression: a blocking Sleep must clear the action so the
        wakeup does not re-arm the same sleep forever."""
        machine, vm, kernel = single_vm_machine(sim)

        def cycler():
            for __ in range(5):
                yield Sleep(10 * MS)
                yield Compute(1 * MS)
        task = kernel.spawn('t', cycler())
        sim.run_until(1 * SEC)
        assert task.state == TASK_EXITED
        assert task.cpu_ns == 5 * MS


class TestMutexBehaviour:
    def test_mutual_exclusion_serializes_critical_sections(self, sim):
        machine, vm, kernel = single_vm_machine(sim, n_pcpus=2, n_vcpus=2)
        m = Mutex()
        active = [0]
        overlaps = []

        def worker():
            for __ in range(20):
                yield Compute(200 * US)
                yield Acquire(m)
                active[0] += 1
                overlaps.append(active[0])
                yield Compute(100 * US)
                active[0] -= 1
                yield Release(m)
        kernel.spawn('a', worker(), gcpu_index=0)
        kernel.spawn('b', worker(), gcpu_index=1)
        sim.run_until(1 * SEC)
        assert overlaps and max(overlaps) == 1

    def test_waiter_blocks_and_wakes(self, sim):
        machine, vm, kernel = single_vm_machine(sim, n_pcpus=2, n_vcpus=2)
        m = Mutex()
        done = []
        kernel.spawn('holder',
                     iter([Acquire(m), Compute(20 * MS), Release(m)]),
                     gcpu_index=0)
        kernel.spawn('waiter',
                     iter([Compute(1 * MS), Acquire(m), Release(m),
                           Compute(1 * MS)]),
                     gcpu_index=1,
                     on_exit=lambda t, now: done.append(now))
        sim.run_until(1 * SEC)
        # Waiter acquires at ~20ms after the holder releases.
        assert done and 20 * MS <= done[0] <= 23 * MS

    def test_fifo_handoff_order(self, sim):
        machine, vm, kernel = single_vm_machine(sim, n_pcpus=4, n_vcpus=4)
        m = Mutex()
        order = []

        def worker(name, delay):
            yield Compute(delay)
            yield Acquire(m)
            order.append(name)
            yield Compute(5 * MS)
            yield Release(m)
        for i in range(4):
            kernel.spawn('w%d' % i, worker('w%d' % i, (i + 1) * 100 * US),
                         gcpu_index=i)
        sim.run_until(1 * SEC)
        assert order == ['w0', 'w1', 'w2', 'w3']


class TestSpinLockBehaviour:
    def test_spinner_burns_cpu_while_waiting(self, sim):
        machine, vm, kernel = single_vm_machine(sim, n_pcpus=2, n_vcpus=2)
        lock = SpinLock()
        kernel.spawn('holder',
                     iter([Acquire(lock), Compute(20 * MS), Release(lock)]),
                     gcpu_index=0)
        spinner = kernel.spawn(
            'spinner', iter([Compute(1 * MS), Acquire(lock),
                             Release(lock)]),
            gcpu_index=1)
        sim.run_until(100 * MS)
        # ~1ms compute + ~19ms spinning, all charged as CPU.
        assert spinner.cpu_ns > 15 * MS

    def test_spin_grant_resumes_immediately(self, sim):
        machine, vm, kernel = single_vm_machine(sim, n_pcpus=2, n_vcpus=2)
        lock = SpinLock()
        done = []
        kernel.spawn('holder',
                     iter([Acquire(lock), Compute(10 * MS), Release(lock)]),
                     gcpu_index=0)
        kernel.spawn('spinner',
                     iter([Compute(1 * MS), Acquire(lock), Compute(1 * MS),
                           Release(lock)]),
                     gcpu_index=1,
                     on_exit=lambda t, now: done.append(now))
        sim.run_until(1 * SEC)
        assert done and done[0] == 11 * MS


class TestBarrierBehaviour:
    @pytest.mark.parametrize('mode', ['block', 'spin'])
    def test_barrier_synchronizes(self, sim, mode):
        machine, vm, kernel = single_vm_machine(sim, n_pcpus=2, n_vcpus=2)
        bar = Barrier(2, mode=mode)
        passed = []

        def worker(name, work_ns):
            yield Compute(work_ns)
            yield BarrierWait(bar)
            passed.append((name, sim.now))
            yield Compute(1 * MS)
        kernel.spawn('fast', worker('fast', 1 * MS), gcpu_index=0)
        kernel.spawn('slow', worker('slow', 9 * MS), gcpu_index=1)
        sim.run_until(1 * SEC)
        times = dict(passed)
        assert times['fast'] == times['slow'] == 9 * MS

    def test_blocking_barrier_idles_vcpu(self, sim):
        machine, vm, kernel = single_vm_machine(sim, n_pcpus=2, n_vcpus=2)
        bar = Barrier(2, mode='block')
        kernel.spawn('fast', iter([Compute(1 * MS), BarrierWait(bar)]),
                     gcpu_index=0)
        kernel.spawn('slow', iter([Compute(50 * MS), BarrierWait(bar)]),
                     gcpu_index=1)
        sim.run_until(20 * MS)
        assert vm.vcpus[0].is_blocked        # deceptive idleness
        assert vm.vcpus[1].is_running

    def test_spin_barrier_keeps_vcpu_busy(self, sim):
        machine, vm, kernel = single_vm_machine(sim, n_pcpus=2, n_vcpus=2)
        bar = Barrier(2, mode='spin')
        kernel.spawn('fast', iter([Compute(1 * MS), BarrierWait(bar)]),
                     gcpu_index=0)
        kernel.spawn('slow', iter([Compute(50 * MS), BarrierWait(bar)]),
                     gcpu_index=1)
        sim.run_until(20 * MS)
        assert vm.vcpus[0].is_running        # burning cycles


class TestPipelineQueues:
    def test_producer_consumer_flow(self, sim):
        machine, vm, kernel = single_vm_machine(sim, n_pcpus=2, n_vcpus=2)
        q = BoundedQueue(2)
        consumed = []

        def producer():
            for i in range(5):
                yield Compute(1 * MS)
                yield QueuePut(q, i)

        def consumer():
            for __ in range(5):
                item = yield QueueGet(q)
                consumed.append(item)
                yield Compute(500 * US)
        kernel.spawn('p', producer(), gcpu_index=0)
        kernel.spawn('c', consumer(), gcpu_index=1)
        sim.run_until(1 * SEC)
        assert consumed == [0, 1, 2, 3, 4]

    def test_bounded_capacity_throttles_producer(self, sim):
        machine, vm, kernel = single_vm_machine(sim, n_pcpus=2, n_vcpus=2)
        q = BoundedQueue(1)
        p_done = []

        def producer():
            for i in range(3):
                yield QueuePut(q, i)
            yield Compute(100 * US)

        def slow_consumer():
            for __ in range(3):
                yield Compute(10 * MS)
                yield QueueGet(q)
        kernel.spawn('p', producer(), gcpu_index=0,
                     on_exit=lambda t, now: p_done.append(now))
        kernel.spawn('c', slow_consumer(), gcpu_index=1)
        sim.run_until(1 * SEC)
        # Producer must wait for the consumer to drain: ≥ 2 consumer
        # periods before its last put completes.
        assert p_done and p_done[0] >= 20 * MS


class TestBalancing:
    def test_idle_vcpu_pulls_ready_work(self, sim):
        machine, vm, kernel = single_vm_machine(sim, n_pcpus=2, n_vcpus=2)

        def chunk():
            yield Compute(50 * MS)
        # Three tasks on gcpu0, nothing on gcpu1: the idle CPU should
        # pull so total completion beats serial execution.
        done = []
        for i in range(3):
            kernel.spawn('t%d' % i, chunk(), gcpu_index=0,
                         on_exit=lambda t, now: done.append(now))
        sim.run_until(1 * SEC)
        assert max(done) <= 110 * MS  # serial would be 150ms

    def test_nohz_kick_revives_idle_vcpu(self, sim):
        machine, vm, kernel = single_vm_machine(sim, n_pcpus=2, n_vcpus=2)

        def long_chunk():
            yield Compute(100 * MS)
        # gcpu1 idles (nothing spawned there); queue two extra tasks on
        # gcpu0 *after* gcpu1 has gone idle-blocked.
        kernel.spawn('a', long_chunk(), gcpu_index=0)
        sim.run_until(5 * MS)
        assert vm.vcpus[1].is_blocked
        done = []
        kernel.spawn('b', long_chunk(), gcpu_index=0,
                     on_exit=lambda t, now: done.append(now))
        kernel.spawn('c', long_chunk(), gcpu_index=0,
                     on_exit=lambda t, now: done.append(now))
        sim.run_until(1 * SEC)
        assert max(done) < 250 * MS  # serial on one vCPU would be ~300ms

    def test_wake_prefers_previous_idle_cpu(self, sim):
        machine, vm, kernel = single_vm_machine(sim, n_pcpus=2, n_vcpus=2)

        def napper():
            for __ in range(3):
                yield Compute(1 * MS)
                yield Sleep(5 * MS)
        task = kernel.spawn('n', napper(), gcpu_index=1)
        sim.run_until(1 * SEC)
        assert task.migrations == 0
        assert task.gcpu is kernel.gcpus[1]


class TestExitAndErrors:
    def test_exit_callback_fires_once(self, sim):
        machine, vm, kernel = single_vm_machine(sim)
        calls = []
        kernel.spawn('t', iter([Compute(1 * MS)]),
                     on_exit=lambda t, now: calls.append(now))
        sim.run_until(1 * SEC)
        assert len(calls) == 1

    def test_unknown_action_raises(self, sim):
        machine, vm, kernel = single_vm_machine(sim)
        with pytest.raises(TypeError):
            kernel.spawn('t', iter([object()]))

    def test_dispatch_is_on_the_exact_action_class(self, sim):
        """Every one-shot action type has its own table row, so the
        interpreter never walks the MRO: a subclass of a table action
        is an unknown action."""
        machine, vm, kernel = single_vm_machine(sim)
        action_types = {cls for cls in vars(actions).values()
                        if isinstance(cls, type)
                        and issubclass(cls, actions.Action)}
        one_shot = action_types - {actions.Action, actions.Compute}
        assert one_shot
        assert one_shot <= set(kernel.interp._handlers)

        class MyAcquire(Acquire):
            __slots__ = ()

        with pytest.raises(TypeError, match='unknown action'):
            kernel.spawn('t', iter([MyAcquire(Mutex('m'))]))

    def test_zero_time_action_livelock_detected(self, sim):
        machine, vm, kernel = single_vm_machine(sim)

        m = Mutex()

        def endless_lock_ops():
            while True:
                yield Acquire(m)
                yield Release(m)
        with pytest.raises(RuntimeError):
            kernel.spawn('t', endless_lock_ops())

    def test_zero_length_compute_livelock_detected(self, sim):
        """Zero-length ``Compute`` steps count toward the guard too; the
        program is finite, so a missing count ends it without a hang."""
        machine, vm, kernel = single_vm_machine(sim)
        steps = [Compute(0)] * (MAX_ZERO_TIME_ACTIONS + 5) + [Compute(1000)]
        with pytest.raises(RuntimeError, match='zero-time actions'):
            kernel.spawn('t', iter(steps))

    def test_empty_program_exits_immediately(self, sim):
        machine, vm, kernel = single_vm_machine(sim)
        task = kernel.spawn('t', iter(()))
        sim.run_until(1 * MS)
        assert task.state == TASK_EXITED


class TestFreezeSemantics:
    """The semantic gap itself: a preempted vCPU freezes its current
    task, which stays 'running' and untouchable."""

    def _setup(self, sim):
        from conftest import build_machine, build_vm
        machine = build_machine(sim, n_pcpus=1)
        vm, kernel = build_vm(sim, machine, 'par', pinning=[0])
        hvm, hk = build_vm(sim, machine, 'hog', pinning=[0])

        def hog():
            while True:
                yield Compute(10 * MS)
        hk.spawn('hog', hog())
        machine.start()
        return machine, vm, kernel

    def test_frozen_task_makes_no_progress(self, sim):
        machine, vm, kernel = self._setup(sim)
        task = kernel.spawn('t', iter([Compute(100 * MS)]))
        sim.run_until(1 * SEC)
        # With a competing hog the task needs ~200ms wall time.
        assert task.state == TASK_EXITED
        assert task.finished_at > 150 * MS

    def test_frozen_task_state_stays_running(self, sim):
        machine, vm, kernel = self._setup(sim)
        task = kernel.spawn('t', iter([Compute(500 * MS)]))
        # Find a moment when the vCPU is preempted mid-execution.
        for __ in range(100):
            sim.run_until(sim.now + 5 * MS)
            if vm.vcpus[0].is_runnable and task.cpu_ns > 0:
                break
        assert vm.vcpus[0].is_runnable
        assert task.state == 'running'       # the lie the guest believes
        assert kernel.gcpus[0].current is task
