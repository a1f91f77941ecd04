"""Unit tests for the cancellable event queue."""

import pytest
from hypothesis import given, strategies as st

from repro.simkernel import SimulationError, Simulator
from repro.simkernel.events import CANCELLED_SEQ, FIRED_SEQ


class TestScheduleAndPop:
    """Events scheduled through ``Simulator.at``/``after`` and taken
    with ``EventQueue.pop`` (the clock does not move)."""

    def test_pop_empty_returns_none(self):
        sim = Simulator()
        assert sim._queue.pop() is None

    def test_single_event_pops(self):
        sim = Simulator()
        sim.at(10, lambda: None)
        event = sim._queue.pop()
        assert event.time == 10
        assert event.fired and event.seq == FIRED_SEQ

    def test_events_pop_in_time_order(self):
        sim = Simulator()
        sim.at(30, lambda: None)
        sim.at(10, lambda: None)
        sim.after(20, lambda: None)
        times = [sim._queue.pop().time for __ in range(3)]
        assert times == [10, 20, 30]

    def test_ties_pop_in_schedule_order(self):
        sim = Simulator()
        order = []
        first = sim.at(5, order.append, 'first')
        second = sim.after(5, order.append, 'second')
        assert sim._queue.pop() is first
        assert sim._queue.pop() is second

    def test_negative_time_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.at(-1, lambda: None)
        assert sim._queue._seq == 0 and not sim._queue._heap

    def test_zero_time_allowed(self):
        sim = Simulator()
        sim.at(0, lambda: None)
        assert sim._queue.pop().time == 0

    def test_callback_args_preserved(self):
        sim = Simulator()
        sim.at(1, lambda a, b: None, 'x', 'y')
        event = sim._queue.pop()
        assert event.args == ('x', 'y')


class TestBoundedPop:
    """``EventQueue.pop(until)`` takes the head only when it is due no
    later than ``until``."""

    def test_event_due_exactly_at_until_pops(self):
        sim = Simulator()
        event = sim.at(50, lambda: None)
        assert sim._queue.pop(50) is event and event.fired

    def test_later_head_stays_queued(self):
        sim = Simulator()
        event = sim.at(51, lambda: None)
        heap = list(sim._queue._heap)
        assert sim._queue.pop(50) is None
        assert sim._queue._heap == heap and event.pending
        assert sim._queue.pop() is event

    def test_cancelled_head_is_dropped_before_the_bound(self):
        sim = Simulator()
        cancelled = sim.at(70, lambda: None)
        later = sim.at(80, lambda: None)
        cancelled.cancel()
        assert sim._queue.pop(50) is None
        assert cancelled.seq == CANCELLED_SEQ
        assert [entry[2] for entry in sim._queue._heap] == [later]

    def test_rekeyed_head_is_compared_at_its_new_key(self):
        """A cancelled handle re-armed later: the stale entry at 10 is
        dropped, and the bound is compared with the fresh event's 60."""
        sim = Simulator()
        handle = sim.at(10, lambda: None)
        handle.cancel()
        fresh = sim.rearm(handle, 60, lambda: None)
        assert sim._queue.pop(50) is None
        assert sim._queue._heap == [(60, fresh.seq, fresh)]
        assert sim._queue.pop(60) is fresh and handle.cancelled


class TestCancellation:
    def test_cancelled_event_not_popped(self):
        sim = Simulator()
        q = sim._queue
        event = sim.at(10, lambda: None)
        event.cancel()
        assert q.pop() is None

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        q = sim._queue
        event = sim.at(10, lambda: None)
        event.cancel()
        event.cancel()
        assert len(q) == 0

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        q = sim._queue
        event = sim.at(10, lambda: None)
        fired = q.pop()
        fired.cancel()
        assert fired.fired

    def test_cancel_middle_event_preserves_others(self):
        sim = Simulator()
        q = sim._queue
        sim.at(1, lambda: None)
        middle = sim.at(2, lambda: None)
        sim.at(3, lambda: None)
        middle.cancel()
        assert [q.pop().time for __ in range(2)] == [1, 3]

    def test_len_counts_live_events_only(self):
        sim = Simulator()
        q = sim._queue
        keep = sim.at(1, lambda: None)
        drop = sim.at(2, lambda: None)
        assert len(q) == 2
        drop.cancel()
        assert len(q) == 1
        q.pop()
        assert len(q) == 0
        assert keep.fired


class TestPeek:
    def test_peek_events_empty(self):
        assert Simulator()._queue.peek_events(3) == []

    def test_peek_events_skips_cancelled(self):
        sim = Simulator()
        q = sim._queue
        head = sim.at(1, lambda: None)
        tail = sim.at(7, lambda: None)
        head.cancel()
        assert q.peek_events(3) == [tail]

    def test_peek_does_not_remove(self):
        sim = Simulator()
        q = sim._queue
        event = sim.at(3, lambda: None)
        assert q.peek_events(1) == [event]
        assert q.peek_events(1) == [event]
        assert len(q) == 1 and event.pending


class TestRekeyedHeads:
    """A handle cancelled and then re-armed by ``Simulator.rearm``: a
    fresh Event holds the new key, the old handle stays cancelled, and
    every reader of the head drops its stale entry."""

    def _rekeyed(self):
        sim = Simulator()
        handle = sim.after(10, lambda: None)
        other = sim.after(15, lambda: None)
        handle.cancel()
        assert handle.seq == CANCELLED_SEQ
        fresh = sim.rearm(handle, 20, lambda: None)
        assert fresh is not handle and fresh.pending and handle.cancelled
        return sim, handle, fresh, other

    def test_pop_drops_a_stale_head(self):
        sim, handle, fresh, other = self._rekeyed()
        queue = sim._queue
        assert queue.pop() is other
        assert queue._heap == [(20, 3, fresh)]
        assert handle.seq == CANCELLED_SEQ
        assert queue.pop() is fresh and fresh.fired
        assert queue.pop() is None and len(queue) == 0

    def test_run_until_settles_stale_heads(self):
        sim, handle, fresh, other = self._rekeyed()
        queue = sim._queue
        other.cancel()
        assert len(queue) == 1
        assert sim.run_until(15) == 0
        # The cancelled (10, 1) and (15, 2) were dropped.
        assert queue._heap == [(20, 3, fresh)]
        assert other.cancelled and handle.cancelled and fresh.pending
        assert len(queue) == 1

    def test_peek_events_lists_the_current_key(self):
        sim, handle, fresh, other = self._rekeyed()
        queue = sim._queue
        assert queue.peek_events(5) == [other, fresh]
        assert [(e.time, e.seq) for e in queue.peek_events(5)] == [
            (15, 2), (20, 3)]
        # Stale entry untouched: diagnostics do not settle the heap.
        assert queue._heap[0] == (10, 1, handle)

    def test_cancelled_head_detaches_its_handle(self):
        sim, handle, fresh, other = self._rekeyed()
        queue = sim._queue
        fresh.cancel()
        assert queue.pop() is other
        assert queue._heap == [(20, 3, fresh)] and len(queue) == 0
        assert queue.pop() is None and not queue._heap
        assert fresh.cancelled and not fresh.pending


class TestEventRepr:
    def test_repr_states(self):
        sim = Simulator()
        q = sim._queue
        event = sim.at(5, lambda: None)
        assert 'pending' in repr(event)
        event.cancel()
        assert 'cancelled' in repr(event)
        fresh = sim.at(6, lambda: None)
        q.pop()  # pops `fresh` (5 was cancelled)
        assert 'fired' in repr(fresh)

    def test_pending_property(self):
        sim = Simulator()
        q = sim._queue
        event = sim.at(5, lambda: None)
        assert event.pending
        event.cancel()
        assert not event.pending


class TestPropertyBased:
    @given(st.lists(st.integers(min_value=0, max_value=10_000),
                    min_size=1, max_size=200))
    def test_pop_order_is_sorted_by_time(self, times):
        sim = Simulator()
        q = sim._queue
        for t in times:
            sim.at(t, lambda: None)
        popped = []
        while True:
            event = q.pop()
            if event is None:
                break
            popped.append(event.time)
        assert popped == sorted(times)

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=1000),
                              st.booleans()),
                    min_size=1, max_size=100))
    def test_cancelled_subset_never_pops(self, spec):
        sim = Simulator()
        q = sim._queue
        live = []
        for t, keep in spec:
            event = sim.at(t, lambda: None)
            if keep:
                live.append(t)
            else:
                event.cancel()
        popped = []
        while True:
            event = q.pop()
            if event is None:
                break
            popped.append(event.time)
        assert popped == sorted(live)
