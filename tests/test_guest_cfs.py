"""Unit tests for CFS policy, rt_avg tracking, and timers."""

from math import exp

import pytest
from hypothesis import given, settings, strategies as st

from repro.guestos.cfs import CfsConfig, CfsPolicy
from repro.guestos.loadavg import DEFAULT_TAU_NS, RtAvgTracker
from repro.guestos.runqueue import RunQueue
from repro.guestos.task import TASK_READY, Task
from repro.hypervisor.vcpu import (
    RUNSTATE_BLOCKED,
    RUNSTATE_RUNNABLE,
    RUNSTATE_RUNNING,
)
from repro.hypervisor.vm import VM
from repro.simkernel import Simulator
from repro.simkernel.units import MS, US


def make_task(vruntime=0, name='t'):
    task = Task(name, iter(()))
    task.vruntime = vruntime
    task.state = TASK_READY
    return task


class TestSlices:
    def test_slice_splits_latency(self):
        policy = CfsPolicy(CfsConfig(sched_latency_ns=6 * MS,
                                     min_granularity_ns=750 * US))
        assert policy.slice_ns(1) == 6 * MS
        assert policy.slice_ns(2) == 3 * MS
        assert policy.slice_ns(4) == 1500 * US

    def test_slice_floor_is_min_granularity(self):
        policy = CfsPolicy()
        assert policy.slice_ns(100) == policy.config.min_granularity_ns

    def test_slice_zero_runners(self):
        policy = CfsPolicy()
        assert policy.slice_ns(0) == policy.config.sched_latency_ns


class TestWakeupPreemption:
    def test_preempts_when_far_behind(self):
        policy = CfsPolicy()
        current = make_task(vruntime=10 * MS)
        woken = make_task(vruntime=1 * MS)
        assert policy.should_preempt_on_wake(current, woken)

    def test_no_preempt_when_close(self):
        policy = CfsPolicy()
        current = make_task(vruntime=2 * MS)
        woken = make_task(vruntime=int(1.5 * MS))
        assert not policy.should_preempt_on_wake(current, woken)

    def test_idle_current_always_preempted(self):
        policy = CfsPolicy()
        assert policy.should_preempt_on_wake(None, make_task())


class TestWakingPlacement:
    def test_sleeper_vruntime_floored(self):
        policy = CfsPolicy()
        rq = RunQueue(gcpu=None)
        rq.min_vruntime = 100 * MS
        stale = make_task(vruntime=0)
        placed = policy.place_waking_vruntime(stale, rq)
        assert placed == 100 * MS - policy.config.sched_latency_ns

    def test_recent_sleeper_keeps_vruntime(self):
        policy = CfsPolicy()
        rq = RunQueue(gcpu=None)
        rq.min_vruntime = 10 * MS
        fresh = make_task(vruntime=9 * MS)
        assert policy.place_waking_vruntime(fresh, rq) == 9 * MS


class TestTickResched:
    def test_resched_after_slice_exhausted(self):
        policy = CfsPolicy()
        rq = RunQueue(gcpu=None)
        rq.enqueue(make_task(vruntime=0, name='waiting'))
        current = make_task(vruntime=1 * MS, name='cur')
        current.stint_ns = 10 * MS
        assert policy.should_resched_at_tick(current, rq)

    def test_no_resched_with_empty_queue(self):
        policy = CfsPolicy()
        rq = RunQueue(gcpu=None)
        current = make_task()
        current.stint_ns = 100 * MS
        assert not policy.should_resched_at_tick(current, rq)

    def test_no_resched_fresh_stint(self):
        policy = CfsPolicy()
        rq = RunQueue(gcpu=None)
        rq.enqueue(make_task(vruntime=10 * MS))
        current = make_task(vruntime=0)
        current.stint_ns = 0
        assert not policy.should_resched_at_tick(current, rq)


_TICK_NS = CfsConfig().tick_ns
_RUNSTATES = st.sampled_from(
    (RUNSTATE_RUNNING, RUNSTATE_RUNNABLE, RUNSTATE_BLOCKED))
# Same instant, exactly one tick, or anywhere within three ticks.
_GAPS = st.one_of(st.just(0), st.just(_TICK_NS),
                  st.integers(1, 3 * _TICK_NS))


class _ReferenceRtAvg:
    """RtAvgTracker.update without the fast path: every update folds a
    fresh snapshot's busy fraction."""

    def __init__(self, vcpu, sim, tau_ns=DEFAULT_TAU_NS):
        # Bound now, so a spy installed later on the vCPU does not see
        # the reference's snapshots.
        self.snapshot = vcpu.snapshot_accounting
        self.sim = sim
        self.tau_ns = tau_ns
        self.value = 0.0
        self.last_time = sim.now
        self.last_run, self.last_steal, __ = self.snapshot(sim.now)

    def update(self):
        now = self.sim.now
        elapsed = now - self.last_time
        if elapsed <= 0:
            return self.value
        run, steal, __ = self.snapshot(now)
        busy = (run - self.last_run) + (steal - self.last_steal)
        fraction = busy / elapsed
        decay = exp(-elapsed / self.tau_ns)
        self.value = decay * self.value + (1.0 - decay) * fraction
        self.last_time = now
        self.last_run = run
        self.last_steal = steal
        return self.value


class TestRtAvg:
    def _tracker(self):
        sim = Simulator()
        vm = VM('vm', 1, sim)
        vcpu = vm.vcpus[0]
        vcpu.set_runstate(RUNSTATE_BLOCKED, 0)
        return sim, vcpu, RtAvgTracker(vcpu, sim)

    def test_idle_vcpu_stays_near_zero(self):
        sim, vcpu, tracker = self._tracker()
        sim.now = 100 * MS
        assert tracker.update() < 0.01

    def test_busy_vcpu_approaches_one(self):
        sim, vcpu, tracker = self._tracker()
        vcpu.set_runstate(RUNSTATE_RUNNING, 0)
        sim.now = 200 * MS
        assert tracker.update() > 0.9

    def test_steal_counts_as_busy(self):
        """rt_avg folds in steal time — the property the migrator and
        wake balancing rely on (Section 3.3)."""
        sim, vcpu, tracker = self._tracker()
        vcpu.set_runstate(RUNSTATE_RUNNABLE, 0)
        sim.now = 200 * MS
        assert tracker.update() > 0.9

    def test_decay_after_going_idle(self):
        sim, vcpu, tracker = self._tracker()
        vcpu.set_runstate(RUNSTATE_RUNNING, 0)
        sim.now = 100 * MS
        busy = tracker.update()
        vcpu.set_runstate(RUNSTATE_BLOCKED, sim.now)
        sim.now = 300 * MS
        assert tracker.update() < busy / 2

    def test_update_at_same_time_is_stable(self):
        sim, vcpu, tracker = self._tracker()
        sim.now = 50 * MS
        first = tracker.update()
        assert tracker.update() == first

    @settings(max_examples=300, deadline=None)
    @given(start=_RUNSTATES, history=st.lists(st.one_of(
        st.tuples(st.just('switch'), _GAPS, _RUNSTATES),
        st.tuples(st.just('update'), _GAPS, st.none())), max_size=40))
    def test_update_matches_the_snapshot_fold(self, start, history):
        """Over random runstate histories (same-instant switches and
        updates one tick apart included) the tracker keeps the bits of
        the general snapshot fold, and it takes no snapshot exactly when
        the vCPU ran all of (last update, now]."""
        sim = Simulator()
        vcpu = VM('vm', 1, sim).vcpus[0]
        vcpu.set_runstate(start, 0)
        tracker = RtAvgTracker(vcpu, sim)
        reference = _ReferenceRtAvg(vcpu, sim)
        snapshot = vcpu.snapshot_accounting
        snapshots = []

        def counting_snapshot(now):
            snapshots.append(now)
            return snapshot(now)
        vcpu.snapshot_accounting = counting_snapshot
        switched_at = 0
        for op, gap, state in history:
            sim.now += gap
            if op == 'switch':
                vcpu.set_runstate(state, sim.now)
                switched_at = sim.now
                continue
            ran_whole_period = (vcpu.runstate == RUNSTATE_RUNNING
                                and switched_at <= tracker._last_time)
            elapsed = sim.now - tracker._last_time
            del snapshots[:]
            tracker.update()
            reference.update()
            assert snapshots == (
                [] if elapsed <= 0 or ran_whole_period else [sim.now])
            assert tracker.value.hex() == reference.value.hex()
            assert tracker._last_run == reference.last_run
            assert tracker._last_steal == reference.last_steal


class TestTimers:
    def test_sleep_fires_once(self):
        from repro.guestos.timers import TimerService
        sim = Simulator()
        woken = []

        class KernelStub:
            def wake_task(self, task):
                woken.append((task, sim.now))
        svc = TimerService(sim, KernelStub())
        task = make_task()
        svc.arm_sleep(task, 5 * MS)
        assert svc.pending == 1
        sim.run_until_idle()
        assert woken == [(task, 5 * MS)]
        assert svc.pending == 0

    def test_cancel_prevents_fire(self):
        from repro.guestos.timers import TimerService
        sim = Simulator()
        woken = []

        class KernelStub:
            def wake_task(self, task):
                woken.append(task)
        svc = TimerService(sim, KernelStub())
        task = make_task()
        svc.arm_sleep(task, 5 * MS)
        svc.cancel(task)
        sim.run_until_idle()
        assert woken == []

    def test_double_arm_raises(self):
        from repro.guestos.timers import TimerService
        sim = Simulator()
        svc = TimerService(sim, None)
        task = make_task()
        svc.arm_sleep(task, 5 * MS)
        with pytest.raises(RuntimeError):
            svc.arm_sleep(task, 5 * MS)
