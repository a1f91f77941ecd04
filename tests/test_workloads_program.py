"""Unit tests for the program builders (action-sequence generators)."""

import pytest

from repro.guestos.task import Task
from repro.simkernel import Simulator
from repro.simkernel.units import MS, SEC, US
from repro.workloads import (
    Acquire,
    BarrierWait,
    Compute,
    Mutex,
    QueueGet,
    QueuePut,
    Release,
    Barrier,
    BoundedQueue,
)
from repro.workloads.program import (
    PIPELINE_STOP,
    barrier_phases,
    compute_chunks,
    cpu_hog,
    mutex_loop,
    pipeline_source,
    work_steal_worker,
)

from conftest import single_vm_machine


def drain(generator, limit=10_000):
    actions = []
    for action in generator:
        actions.append(action)
        if len(actions) >= limit:
            break
    return actions


class TestSimplePrograms:
    def test_cpu_hog_never_ends(self):
        actions = drain(cpu_hog(5 * MS), limit=50)
        assert len(actions) == 50
        assert all(isinstance(a, Compute) for a in actions)

    def test_compute_chunks_total(self):
        actions = drain(compute_chunks(10 * MS, 3 * MS))
        assert sum(a.duration_ns for a in actions) == 10 * MS
        assert [a.duration_ns for a in actions] == [3 * MS, 3 * MS,
                                                    3 * MS, 1 * MS]

    def test_compute_chunks_zero(self):
        assert drain(compute_chunks(0, 1 * MS)) == []


class TestBarrierPhases:
    def test_structure(self):
        sim = Simulator(seed=0)
        barrier = Barrier(2)
        actions = drain(barrier_phases(sim, 's', barrier, 5 * MS, 3))
        kinds = [type(a).__name__ for a in actions]
        assert kinds == ['Compute', 'BarrierWait'] * 3

    def test_critical_section_inserted(self):
        sim = Simulator(seed=0)
        barrier = Barrier(2)
        mutex = Mutex()
        actions = drain(barrier_phases(sim, 's', barrier, 5 * MS, 2,
                                       critical=(mutex, 100)))
        kinds = [type(a).__name__ for a in actions]
        assert kinds == ['Compute', 'Acquire', 'Compute', 'Release',
                         'BarrierWait'] * 2

    def test_region_boundary_interleaving(self):
        sim = Simulator(seed=0)
        spin = Barrier(2, mode='spin')
        region = Barrier(2, mode='block')
        actions = drain(barrier_phases(sim, 's', spin, 5 * MS, 6,
                                       region_barrier=region,
                                       region_every=3))
        barriers = [a.barrier for a in actions
                    if isinstance(a, BarrierWait)]
        assert barriers == [spin, spin, region, spin, spin, region]

    def test_jitter_bounded(self):
        sim = Simulator(seed=0)
        barrier = Barrier(2)
        actions = drain(barrier_phases(sim, 's', barrier, 10 * MS, 20,
                                       jitter=0.2))
        for action in actions:
            if isinstance(action, Compute):
                assert 8 * MS <= action.duration_ns <= 12 * MS

    def test_phase_callback(self):
        sim = Simulator(seed=0)
        barrier = Barrier(1)
        stamps = []
        list(barrier_phases(sim, 's', barrier, 1 * MS, 4,
                            on_phase=stamps.append))
        assert len(stamps) == 4


class TestMutexLoop:
    def test_structure(self):
        sim = Simulator(seed=0)
        mutex = Mutex()
        actions = drain(mutex_loop(sim, 's', mutex, 4 * MS, 100, 2))
        kinds = [type(a).__name__ for a in actions]
        assert kinds == ['Compute', 'Acquire', 'Compute', 'Release'] * 2
        criticals = [a for a in actions if isinstance(a, Compute)][1::2]
        assert all(c.duration_ns == 100 for c in criticals)


class TestWorkStealing:
    def test_pool_drains_across_workers(self):
        sim = Simulator(seed=0)
        pool = [1 * MS] * 10
        w1 = work_steal_worker(sim, pool)
        w2 = work_steal_worker(sim, pool)
        taken = 0
        # Alternate fetches, as two threads would.
        gens = [w1, w2]
        while True:
            progressed = False
            for g in gens:
                try:
                    next(g)
                    taken += 1
                    progressed = True
                except StopIteration:
                    pass
            if not progressed:
                break
        assert taken == 10
        assert pool == []


class TestPipelinePrograms:
    def test_source_emits_items_then_stops(self):
        sim = Simulator(seed=0)
        queue = BoundedQueue(100)
        counter = [0]
        actions = drain(pipeline_source(sim, 's', queue, 3, 1 * MS, 0.0,
                                        counter, n_source_threads=1,
                                        next_stage_threads=2))
        puts = [a for a in actions if isinstance(a, QueuePut)]
        assert len(puts) == 5                      # 3 items + 2 stops
        assert [p.item for p in puts[-2:]] == [PIPELINE_STOP,
                                               PIPELINE_STOP]

    def test_only_last_source_sends_stops(self):
        sim = Simulator(seed=0)
        queue = BoundedQueue(100)
        counter = [0]
        first = drain(pipeline_source(sim, 's1', queue, 1, 1 * MS, 0.0,
                                      counter, n_source_threads=2,
                                      next_stage_threads=1))
        second = drain(pipeline_source(sim, 's2', queue, 1, 1 * MS, 0.0,
                                       counter, n_source_threads=2,
                                       next_stage_threads=1))
        stops_first = [a for a in first if isinstance(a, QueuePut)
                       and a.item is PIPELINE_STOP]
        stops_second = [a for a in second if isinstance(a, QueuePut)
                        and a.item is PIPELINE_STOP]
        assert len(stops_first) == 0
        assert len(stops_second) == 1


def _fresh_barrier_phases(sim, stream, barrier, phase_ns, phases,
                          jitter=0.0, critical=None, region_barrier=None,
                          region_every=0):
    """The action sequence of :func:`barrier_phases`, every action built
    where it is yielded."""
    for index in range(phases):
        yield Compute(sim.rng.jittered_ns(stream, phase_ns, jitter)
                      if jitter else phase_ns)
        if critical is not None:
            yield Acquire(critical[0])
            yield Compute(critical[1])
            yield Release(critical[0])
        if (region_barrier is not None and region_every > 0
                and (index + 1) % region_every == 0):
            yield BarrierWait(region_barrier)
        else:
            yield BarrierWait(barrier)


def _fresh_mutex_loop(sim, stream, mutex, compute_ns, critical_ns,
                      iterations, jitter=0.0):
    """The action sequence of :func:`mutex_loop`, every action built
    where it is yielded."""
    for __ in range(iterations):
        yield Compute(sim.rng.jittered_ns(stream, compute_ns, jitter)
                      if jitter else compute_ns)
        yield Acquire(mutex)
        yield Compute(critical_ns)
        yield Release(mutex)


def _shape(actions):
    """Each action's type and payload: duration, lock or barrier."""
    return [(type(a).__name__, getattr(a, 'duration_ns', None),
             getattr(a, 'lock', None), getattr(a, 'barrier', None))
            for a in actions]


class TestLoopInvariantActions:
    """The builders yield one instance of each loop-invariant action per
    program; the sequence they describe is the one of fresh actions."""

    @pytest.mark.parametrize('critical, region_every, jitter', [
        (False, None, 0.0),
        (False, None, 0.2),
        (True, None, 0.0),
        (True, None, 0.1),
        (False, 3, 0.0),
        (True, 2, 0.3),
        (False, 0, 0.0),
    ])
    def test_barrier_phases_matches_fresh_actions(self, critical,
                                                  region_every, jitter):
        barrier, region, mutex = Barrier(2), Barrier(2), Mutex()
        kwargs = {'jitter': jitter}
        if critical:
            kwargs['critical'] = (mutex, 150 * US)
        if region_every is not None:
            kwargs.update(region_barrier=region, region_every=region_every)
        built, fresh = Simulator(seed=3), Simulator(seed=3)
        actions = drain(barrier_phases(built, 's', barrier, 5 * MS, 7,
                                       **kwargs))
        expected = drain(_fresh_barrier_phases(fresh, 's', barrier, 5 * MS,
                                               7, **kwargs))
        assert _shape(actions) == _shape(expected)

    @pytest.mark.parametrize('jitter', [0.0, 0.25])
    def test_mutex_loop_matches_fresh_actions(self, jitter):
        mutex = Mutex()
        built, fresh = Simulator(seed=5), Simulator(seed=5)
        actions = drain(mutex_loop(built, 's', mutex, 4 * MS, 120 * US, 6,
                                   jitter=jitter))
        expected = drain(_fresh_mutex_loop(fresh, 's', mutex, 4 * MS,
                                           120 * US, 6, jitter=jitter))
        assert _shape(actions) == _shape(expected)

    def test_mutex_loop_reuses_its_critical_section(self):
        sim = Simulator(seed=0)
        actions = drain(mutex_loop(sim, 's', Mutex(), 4 * MS, 100, 3))
        sections = [tuple(actions[i + 1:i + 4]) for i in range(0, 12, 4)]
        assert all(s == sections[0] for s in sections)
        assert all(a is b for a, b in zip(sections[0], sections[1]))


def _contended_run(shared):
    """Two tasks on two vCPUs contending for one mutex, yielding one
    instance of each action over and over (``shared``) or a fresh one
    each time. Returns the makespan, the lock's state and the actions'
    durations after the run."""
    sim = Simulator(seed=7)
    machine, vm, kernel = single_vm_machine(sim, n_pcpus=2, n_vcpus=2)
    mutex = Mutex()
    finished = []
    seen = []

    def program(compute_ns):
        compute = Compute(compute_ns)
        acquire, hold, release = (Acquire(mutex), Compute(300 * US),
                                  Release(mutex))
        seen.extend((compute, hold))
        for __ in range(20):
            if shared:
                yield compute
                yield acquire
                yield hold
                yield release
            else:
                yield Compute(compute_ns)
                yield Acquire(mutex)
                yield Compute(300 * US)
                yield Release(mutex)
    for index, compute_ns in enumerate((1 * MS, 1 * MS + 100 * US)):
        kernel.spawn('t%d' % index, program(compute_ns), gcpu_index=index,
                     on_exit=lambda task, now: finished.append(now))
    sim.run_until(1 * SEC)
    assert len(finished) == 2
    return (max(finished), mutex.owner, list(mutex.waiters),
            mutex.total_acquires, mutex.contended_acquires,
            [a.duration_ns for a in seen])


class TestInterpreterLeavesActionsAlone:
    def test_repeated_instances_run_like_fresh_ones(self):
        shared = _contended_run(shared=True)
        assert shared == _contended_run(shared=False)
        makespan, owner, waiters, total, contended, durations = shared
        assert owner is None and waiters == []
        assert total == 40 and contended > 0
        assert durations == [1 * MS, 300 * US, 1 * MS + 100 * US, 300 * US]


class TestTaskPrograms:
    def test_plain_iterator_without_send(self):
        # A value handed to a program without send is dropped.
        actions = [Compute(1 * MS), Compute(2 * MS)]
        task = Task('t', iter(actions))
        assert not hasattr(task.program, 'send')
        assert [task.next_action('ignored') for __ in range(3)] == (
            actions + [None])
