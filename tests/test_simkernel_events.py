"""Unit tests for the cancellable event queue."""

import pytest
from hypothesis import given, strategies as st

from repro.simkernel import Simulator
from repro.simkernel.events import CANCELLED_SEQ, Event, EventQueue


def make_queue():
    return EventQueue()


class TestScheduleAndPop:
    def test_pop_empty_returns_none(self):
        q = make_queue()
        assert q.pop() is None

    def test_single_event_pops(self):
        q = make_queue()
        q.schedule(10, lambda: None)
        event = q.pop()
        assert event.time == 10
        assert event.fired

    def test_events_pop_in_time_order(self):
        q = make_queue()
        q.schedule(30, lambda: None)
        q.schedule(10, lambda: None)
        q.schedule(20, lambda: None)
        times = [q.pop().time for __ in range(3)]
        assert times == [10, 20, 30]

    def test_ties_pop_in_schedule_order(self):
        q = make_queue()
        order = []
        first = q.schedule(5, order.append, 'first')
        second = q.schedule(5, order.append, 'second')
        assert q.pop() is first
        assert q.pop() is second

    def test_negative_time_rejected(self):
        q = make_queue()
        with pytest.raises(ValueError):
            q.schedule(-1, lambda: None)

    def test_zero_time_allowed(self):
        q = make_queue()
        q.schedule(0, lambda: None)
        assert q.pop().time == 0

    def test_callback_args_preserved(self):
        q = make_queue()
        q.schedule(1, lambda a, b: None, 'x', 'y')
        event = q.pop()
        assert event.args == ('x', 'y')


class TestCancellation:
    def test_cancelled_event_not_popped(self):
        q = make_queue()
        event = q.schedule(10, lambda: None)
        event.cancel()
        assert q.pop() is None

    def test_cancel_is_idempotent(self):
        q = make_queue()
        event = q.schedule(10, lambda: None)
        event.cancel()
        event.cancel()
        assert len(q) == 0

    def test_cancel_after_fire_is_noop(self):
        q = make_queue()
        event = q.schedule(10, lambda: None)
        fired = q.pop()
        fired.cancel()
        assert fired.fired

    def test_cancel_middle_event_preserves_others(self):
        q = make_queue()
        q.schedule(1, lambda: None)
        middle = q.schedule(2, lambda: None)
        q.schedule(3, lambda: None)
        middle.cancel()
        assert [q.pop().time for __ in range(2)] == [1, 3]

    def test_len_counts_live_events_only(self):
        q = make_queue()
        keep = q.schedule(1, lambda: None)
        drop = q.schedule(2, lambda: None)
        assert len(q) == 2
        drop.cancel()
        assert len(q) == 1
        assert bool(q)
        q.pop()
        assert len(q) == 0
        assert not q
        assert keep.fired


class TestPeek:
    def test_peek_time_empty(self):
        assert make_queue().peek_time() is None

    def test_peek_time_skips_cancelled(self):
        q = make_queue()
        head = q.schedule(1, lambda: None)
        q.schedule(7, lambda: None)
        head.cancel()
        assert q.peek_time() == 7

    def test_peek_does_not_remove(self):
        q = make_queue()
        q.schedule(3, lambda: None)
        assert q.peek_time() == 3
        assert q.peek_time() == 3
        assert len(q) == 1


class TestRekeyedHeads:
    """A handle cancelled and re-keyed by ``Simulator.rearm`` keeps one
    stale heap entry; every reader of the head pushes it back at the
    handle's current key, and the diagnostics list the current key."""

    def _rekeyed(self):
        sim = Simulator()
        queue = sim._queue
        handle = sim.after(10, lambda: None)
        other = sim.after(15, lambda: None)
        handle.cancel()
        assert handle.seq == CANCELLED_SEQ
        assert sim.rearm(handle, 20, lambda: None) is handle
        return queue, handle, other

    def test_pop_pushes_a_stale_head_back(self):
        queue, handle, other = self._rekeyed()
        assert queue.pop() is other
        assert queue._heap == [(20, 3, handle)]
        assert queue.pop() is handle and handle.fired
        assert queue.pop() is None and len(queue) == 0

    def test_peek_time_reports_the_current_key(self):
        queue, handle, other = self._rekeyed()
        other.cancel()
        assert queue.peek_time() == 20
        assert queue._heap == [(20, 3, handle)]
        assert len(queue) == 1

    def test_peek_events_lists_the_current_key(self):
        queue, handle, other = self._rekeyed()
        assert queue.peek_events(5) == [other, handle]
        assert [(e.time, e.seq) for e in queue.peek_events(5)] == [
            (15, 2), (20, 3)]
        # Stale entry untouched: diagnostics do not settle the heap.
        assert queue._heap[0] == (10, 1, handle)

    def test_cancelled_head_detaches_its_handle(self):
        queue, handle, other = self._rekeyed()
        handle.cancel()
        assert queue.pop() is other
        assert handle._queue is None and not queue._heap
        assert len(queue) == 0


class TestClear:
    def test_clear_drops_everything(self):
        q = make_queue()
        for t in range(5):
            q.schedule(t, lambda: None)
        q.clear()
        assert len(q) == 0
        assert q.pop() is None


class TestEventRepr:
    def test_repr_states(self):
        q = make_queue()
        event = q.schedule(5, lambda: None)
        assert 'pending' in repr(event)
        event.cancel()
        assert 'cancelled' in repr(event)
        fresh = q.schedule(6, lambda: None)
        q.pop()  # pops `fresh` (5 was cancelled)
        assert 'fired' in repr(fresh)

    def test_pending_property(self):
        q = make_queue()
        event = q.schedule(5, lambda: None)
        assert event.pending
        event.cancel()
        assert not event.pending


class TestPropertyBased:
    @given(st.lists(st.integers(min_value=0, max_value=10_000),
                    min_size=1, max_size=200))
    def test_pop_order_is_sorted_by_time(self, times):
        q = make_queue()
        for t in times:
            q.schedule(t, lambda: None)
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
        q = make_queue()
        live = []
        for t, keep in spec:
            event = q.schedule(t, lambda: None)
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
