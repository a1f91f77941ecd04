"""Unit tests for synchronization primitive state machines (no sim)."""

import pytest
from hypothesis import given, strategies as st

from repro.guestos.task import Task
from repro.workloads.sync import (
    ACQUIRED,
    Barrier,
    BoundedQueue,
    Mutex,
    PASS,
    SPIN,
    SpinLock,
    WAIT,
)


def task(name='t'):
    return Task(name, iter(()))


class TestMutex:
    def test_uncontended_acquire(self):
        m = Mutex()
        a = task('a')
        assert m.acquire(a) == ACQUIRED
        assert m.owner is a

    def test_contended_acquire_waits(self):
        m = Mutex()
        a, b = task('a'), task('b')
        m.acquire(a)
        assert m.acquire(b) == WAIT
        assert b in m.waiters

    def test_release_hands_off_fifo(self):
        m = Mutex()
        a, b, c = task('a'), task('b'), task('c')
        m.acquire(a)
        m.acquire(b)
        m.acquire(c)
        assert m.release(a) is b
        assert m.owner is b
        assert m.release(b) is c

    def test_release_without_waiters_frees(self):
        m = Mutex()
        a = task('a')
        m.acquire(a)
        assert m.release(a) is None
        assert m.owner is None

    def test_release_by_non_owner_raises(self):
        m = Mutex()
        a, b = task('a'), task('b')
        m.acquire(a)
        with pytest.raises(RuntimeError):
            m.release(b)

    def test_contention_stats(self):
        m = Mutex()
        a, b = task('a'), task('b')
        m.acquire(a)
        m.acquire(b)
        assert m.total_acquires == 2
        assert m.contended_acquires == 1


class TestSpinLock:
    def test_uncontended(self):
        lock = SpinLock()
        a = task('a')
        assert lock.acquire(a) == ACQUIRED

    def test_contended_spins(self):
        lock = SpinLock()
        a, b = task('a'), task('b')
        lock.acquire(a)
        assert lock.acquire(b) == SPIN
        assert b in lock.spinners

    def test_fair_lock_grants_fifo_even_to_preempted(self):
        """Ticket-lock semantics: the next ticket holder gets the lock
        even if it cannot run — the LWP amplifier."""
        lock = SpinLock(fair=True)
        a, b, c = task('a'), task('b'), task('c')
        lock.acquire(a)
        lock.acquire(b)
        lock.acquire(c)
        grantee = lock.release(a, running_predicate=lambda t: t is c)
        assert grantee is b

    def test_unfair_lock_prefers_running_spinner(self):
        lock = SpinLock(fair=False)
        a, b, c = task('a'), task('b'), task('c')
        lock.acquire(a)
        lock.acquire(b)
        lock.acquire(c)
        grantee = lock.release(a, running_predicate=lambda t: t is c)
        assert grantee is c

    def test_unfair_lock_falls_back_to_head(self):
        lock = SpinLock(fair=False)
        a, b = task('a'), task('b')
        lock.acquire(a)
        lock.acquire(b)
        grantee = lock.release(a, running_predicate=lambda t: False)
        assert grantee is b

    def test_release_empty_frees(self):
        lock = SpinLock()
        a = task('a')
        lock.acquire(a)
        assert lock.release(a) is None
        assert lock.owner is None

    def test_non_owner_release_raises(self):
        lock = SpinLock()
        a, b = task('a'), task('b')
        lock.acquire(a)
        with pytest.raises(RuntimeError):
            lock.release(b)


class TestBarrier:
    def test_last_arrival_passes_and_releases(self):
        bar = Barrier(3, mode='block')
        a, b, c = task('a'), task('b'), task('c')
        assert bar.wait(a) == (WAIT, None)
        assert bar.wait(b) == (WAIT, None)
        status, released = bar.wait(c)
        assert status == PASS
        assert set(released) == {a, b}
        assert bar.generation == 1

    def test_spin_mode_early_arrivals_spin(self):
        bar = Barrier(2, mode='spin')
        a = task('a')
        assert bar.wait(a) == (SPIN, None)

    def test_barrier_reusable_across_generations(self):
        bar = Barrier(2)
        a, b = task('a'), task('b')
        bar.wait(a)
        bar.wait(b)
        assert bar.wait(a) == (WAIT, None)
        status, released = bar.wait(b)
        assert status == PASS
        assert released == [a]
        assert bar.generation == 2

    def test_single_party_always_passes(self):
        bar = Barrier(1)
        status, released = bar.wait(task('a'))
        assert status == PASS
        assert released == []

    def test_invalid_parties(self):
        with pytest.raises(ValueError):
            Barrier(0)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            Barrier(2, mode='busy')

    @given(st.integers(min_value=2, max_value=16),
           st.integers(min_value=1, max_value=5))
    def test_generations_count_property(self, parties, rounds):
        bar = Barrier(parties)
        tasks = [task('t%d' % i) for i in range(parties)]
        for __ in range(rounds):
            for i, t in enumerate(tasks):
                status, __released = bar.wait(t)
                if i < parties - 1:
                    assert status == WAIT
                else:
                    assert status == PASS
        assert bar.generation == rounds


class TestBoundedQueue:
    def test_put_get_roundtrip(self):
        q = BoundedQueue(2)
        p, c = task('p'), task('c')
        assert q.put(p, 'x') == (PASS, None)
        status, item, producer = q.get(c)
        assert (status, item, producer) == (PASS, 'x', None)

    def test_get_empty_waits(self):
        q = BoundedQueue(1)
        c = task('c')
        assert q.get(c) == (WAIT, None, None)
        assert c in q.get_waiters

    def test_put_full_waits(self):
        q = BoundedQueue(1)
        p1, p2 = task('p1'), task('p2')
        q.put(p1, 'a')
        assert q.put(p2, 'b') == (WAIT, None)
        assert (p2, 'b') in q.put_waiters

    def test_put_hands_directly_to_blocked_consumer(self):
        q = BoundedQueue(1)
        p, c = task('p'), task('c')
        q.get(c)
        status, consumer = q.put(p, 'x')
        assert status == PASS
        assert consumer is c
        assert c.mailbox == 'x'

    def test_get_unblocks_waiting_producer(self):
        q = BoundedQueue(1)
        p1, p2, c = task('p1'), task('p2'), task('c')
        q.put(p1, 'a')
        q.put(p2, 'b')          # p2 waits
        status, item, producer = q.get(c)
        assert (status, item) == (PASS, 'a')
        assert producer is p2
        assert q.items == ['b']  # p2's deferred item appended

    def test_fifo_order(self):
        q = BoundedQueue(4)
        p, c = task('p'), task('c')
        for x in ('1', '2', '3'):
            q.put(p, x)
        got = [q.get(c)[1] for __ in range(3)]
        assert got == ['1', '2', '3']

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BoundedQueue(0)

    @given(st.integers(min_value=1, max_value=8),
           st.lists(st.sampled_from(['put', 'get']), max_size=60))
    def test_invariants_property(self, capacity, operations):
        """Items never exceed capacity; waiters only exist at the
        empty/full extremes."""
        q = BoundedQueue(capacity)
        p, c = task('p'), task('c')
        counter = [0]
        for op in operations:
            if op == 'put':
                counter[0] += 1
                q.put(p, counter[0])
            else:
                q.get(c)
            assert len(q.items) <= capacity
            if q.put_waiters:
                assert len(q.items) == capacity
            if q.get_waiters:
                assert not q.items
