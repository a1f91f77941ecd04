"""Unit tests for the Simulator driver."""

import cProfile
import os
import pstats

import pytest
from hypothesis import given, settings, strategies as st

from repro.simkernel import LivelockError, SimulationError, Simulator
from repro.simkernel.events import CANCELLED_SEQ


class TestScheduling:
    def test_after_fires_at_offset(self):
        sim = Simulator()
        fired = []
        sim.after(100, lambda: fired.append(sim.now))
        sim.run_until(1000)
        assert fired == [100]

    def test_at_fires_at_absolute_time(self):
        sim = Simulator()
        fired = []
        sim.at(250, lambda: fired.append(sim.now))
        sim.run_until(1000)
        assert fired == [250]

    def test_call_soon_fires_at_current_time(self):
        sim = Simulator()
        fired = []
        sim.after(50, lambda: sim.call_soon(lambda: fired.append(sim.now)))
        sim.run_until(1000)
        assert fired == [50]

    def test_at_in_past_raises(self):
        sim = Simulator()
        sim.after(10, lambda: None)
        sim.run_until(100)
        with pytest.raises(SimulationError):
            sim.at(5, lambda: None)

    def test_negative_delay_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.after(-1, lambda: None)


class TestRunning:
    def test_run_until_advances_clock_to_end(self):
        sim = Simulator()
        sim.run_until(500)
        assert sim.now == 500

    def test_run_until_does_not_fire_later_events(self):
        sim = Simulator()
        fired = []
        sim.after(600, lambda: fired.append(True))
        sim.run_until(500)
        assert fired == []
        assert sim.pending_events == 1

    def test_run_until_fires_boundary_event(self):
        sim = Simulator()
        fired = []
        sim.after(500, lambda: fired.append(True))
        sim.run_until(500)
        assert fired == [True]

    def test_stop_halts_run(self):
        sim = Simulator()
        fired = []
        sim.after(10, lambda: (fired.append(1), sim.stop()))
        sim.after(20, lambda: fired.append(2))
        sim.run_until(100)
        assert fired == [1]
        # A later run picks the remaining event up.
        sim.run_until(100)
        assert fired == [1, 2]

    def test_run_until_idle_drains_queue(self):
        sim = Simulator()
        fired = []
        for t in (5, 10, 15):
            sim.at(t, lambda: fired.append(sim.now))
        count = sim.run_until_idle()
        assert count == 3
        assert fired == [5, 10, 15]

    def test_max_events_guard(self):
        sim = Simulator()

        def rearm():
            sim.after(1, rearm)
        sim.after(1, rearm)
        with pytest.raises(SimulationError):
            sim.run_until(10**9, max_events=100)

    def test_events_processed_counter(self):
        sim = Simulator()
        for t in range(10):
            sim.at(t, lambda: None)
        sim.run_until_idle()
        assert sim.events_processed == 10

    def test_events_fire_in_causal_order(self):
        sim = Simulator()
        log = []

        def first():
            log.append(('first', sim.now))
            sim.after(5, second)

        def second():
            log.append(('second', sim.now))
        sim.after(10, first)
        sim.run_until_idle()
        assert log == [('first', 10), ('second', 15)]

    def test_livelock_error_summarizes_pending_events(self):
        sim = Simulator()

        def rearm():
            sim.after(1, rearm)

        def far_future():
            pass
        sim.after(1, rearm)
        sim.at(10**9, far_future)
        with pytest.raises(LivelockError) as err:
            sim.run_until(10**12, max_events=100)
        exc = err.value
        assert isinstance(exc, SimulationError)
        assert exc.limit == 100
        assert exc.pending == 2
        # Deadline summary in firing order, naming the callbacks.
        assert len(exc.next_events) == 2
        first_time, first_name = exc.next_events[0]
        assert first_time == sim.now + 1
        assert 'rearm' in first_name
        assert 'far_future' in exc.next_events[1][1]
        message = str(exc)
        assert '2 events still pending' in message
        assert 'rearm' in message

    def test_livelock_error_from_run_until_idle(self):
        sim = Simulator()

        def rearm():
            sim.after(1, rearm)
        sim.after(1, rearm)
        with pytest.raises(LivelockError) as err:
            sim.run_until_idle(max_events=50)
        assert 'while draining' in str(err.value)
        assert err.value.pending == 1

    def test_livelock_summary_is_bounded(self):
        sim = Simulator()

        def rearm():
            sim.after(1, rearm)
        sim.after(1, rearm)
        for t in range(100, 120):
            sim.at(t * 1000, lambda: None)
        with pytest.raises(LivelockError) as err:
            sim.run_until(10**9, max_events=10)
        assert err.value.pending == 21
        assert len(err.value.next_events) == LivelockError.SUMMARY_DEPTH

    def test_clock_never_goes_backwards(self):
        sim = Simulator(seed=7)
        stamps = []
        for t in (3, 1, 2, 1, 5):
            sim.at(t, lambda: stamps.append(sim.now))
        sim.run_until_idle()
        assert stamps == sorted(stamps)


class TestBoundedStep:
    """``step(until)``: the one dispatcher, with the bound ``run_until``
    passes it."""

    def test_event_due_exactly_at_until_fires(self):
        sim = Simulator()
        fired = []
        sim.at(500, lambda: fired.append(sim.now))
        assert sim.step(500)
        assert fired == [500] and sim.now == 500
        assert sim.events_processed == 1

    def test_later_head_is_left_untouched(self):
        sim = Simulator()
        sim.at(100, lambda: None)
        sim.run_until(100)
        later = sim.at(501, lambda: None)
        heap = list(sim._queue._heap)
        assert not sim.step(500)
        assert sim._queue._heap == heap and later.pending
        assert sim.now == 100 and sim.events_processed == 1
        assert sim.last_event is not later

    def test_stale_head_is_settled_before_the_bound(self):
        sim = Simulator()
        fired = []
        sim.at(600, fired.append, 'cancelled').cancel()
        sim.at(700, fired.append, 'late')
        assert not sim.step(500)
        assert [entry[0] for entry in sim._queue._heap] == [700]
        assert sim.now == 0 and fired == []
        assert sim.step(700) and fired == ['late']


class TestRunUntilEdges:
    def test_only_cancelled_events_advance_clock_to_end(self):
        sim = Simulator()
        fired = []
        for t in (10, 20, 30):
            sim.at(t, lambda: fired.append(sim.now)).cancel()
        assert sim.run_until(500) == 0
        assert fired == []
        assert sim.now == 500
        assert sim.pending_events == 0

    def test_cancelled_head_before_boundary_event(self):
        sim = Simulator()
        fired = []
        sim.at(100, lambda: fired.append('dropped')).cancel()
        sim.at(500, lambda: fired.append(sim.now))
        assert sim.run_until(500) == 1
        assert fired == [500]

    def test_stop_inside_callback_returns_after_that_event(self):
        sim = Simulator()
        fired = []

        def stopper():
            fired.append('stopper')
            sim.stop()
        sim.at(10, stopper)
        sim.at(10, lambda: fired.append('same-instant'))
        sim.at(20, lambda: fired.append('later'))
        assert sim.run_until(100) == 1
        assert fired == ['stopper']
        assert sim.now == 10
        assert sim.pending_events == 2

    def test_same_instant_mixed_scheduling_fires_in_order(self):
        sim = Simulator()
        fired = []

        def schedule_mix():
            sim.at(sim.now + 5, fired.append, 'at')
            sim.call_soon(fired.append, 'soon')
            sim.after(5, fired.append, 'after')
            sim.at(sim.now, fired.append, 'at-now')
            sim.after(0, fired.append, 'after-0')
            sim.call_soon(fired.append, 'soon-2')
        sim.at(10, schedule_mix)
        sim.run_until(100)
        assert fired == ['soon', 'at-now', 'after-0', 'soon-2',
                         'at', 'after']

    def test_cancel_after_fire_keeps_pending_count(self):
        sim = Simulator()
        done = sim.after(5, lambda: None)
        sim.after(50, lambda: None)
        sim.run_until(10)
        assert done.fired
        assert sim.pending_events == 1
        done.cancel()
        assert not done.cancelled
        assert sim.pending_events == 1
        assert sim.run_until(100) == 1



class TestRearm:
    """``Simulator.rearm``: a fired handle is rescheduled in place; a
    cancelled or missing one gets a fresh Event (the cancelled one
    stays cancelled); a pending one is refused."""

    def _fired(self, sim, results):
        handle = sim.after(10, results.append, 'first')
        sim.run_until(10)
        assert handle.fired
        return handle

    def test_fires_at_now_plus_delay_in_seq_order(self):
        sim = Simulator()
        results = []
        handle = self._fired(sim, results)
        sim.after(5, results.append, 'before')
        again = sim.rearm(handle, 5, results.append, 'rearmed')
        sim.after(5, results.append, 'after')
        assert again is handle
        assert handle.pending and handle.time == 15
        sim.run_until(100)
        assert results == ['first', 'before', 'rearmed', 'after']
        assert handle.fired

    def test_rearm_from_own_callback(self):
        sim = Simulator()
        results = []
        timer = {}

        def tick(n):
            results.append(sim.now)
            if n:
                timer['handle'] = sim.rearm(timer['handle'], 10, tick, n - 1)
        first = timer['handle'] = sim.after(10, tick, 3)
        sim.run_until_idle()
        assert results == [10, 20, 30, 40]
        assert timer['handle'] is first
        assert sim.events_processed == 4
        assert sim.pending_events == 0

    def test_pending_handle_raises(self):
        sim = Simulator()
        handle = sim.after(10, lambda: None)
        with pytest.raises(SimulationError):
            sim.rearm(handle, 5, lambda: None)
        assert sim._queue._seq == 1
        assert sim.pending_events == 1

    def test_negative_delay_raises(self):
        sim = Simulator()
        handle = self._fired(sim, [])
        with pytest.raises(SimulationError):
            sim.rearm(handle, -1, lambda: None)
        assert handle.fired
        assert sim.pending_events == 0

    def test_cancelled_handle_gets_a_fresh_event(self):
        sim = Simulator()
        queue = sim._queue
        results = []
        sim.after(20, results.append, 'before')
        handle = sim.after(10, results.append, 'stale')
        handle.cancel()
        assert len(queue) == 1
        fresh = sim.rearm(handle, 20, results.append, 'fresh')
        sim.after(20, results.append, 'after')
        # A fresh Event at the next seq, pushed beside the stale entry;
        # the old handle stays cancelled.
        assert fresh is not handle and fresh.pending and handle.cancelled
        assert (fresh.time, fresh.seq) == (20, 3)
        assert queue._seq == 4 and len(queue) == 3
        assert len(queue._heap) == 4
        sim.run_until(15)
        # The stale entry surfaced at 10 and was dropped.
        assert results == [] and len(queue._heap) == 3
        sim.run_until(100)
        assert results == ['before', 'fresh', 'after']
        assert fresh.fired and handle.cancelled
        assert len(queue) == 0 and not queue._heap
        # Its entry gone, the cancelled handle still gets a fresh Event.
        again = sim.rearm(handle, 10, results.append, 'again')
        assert again is not handle and handle.cancelled and again.pending
        sim.run_until(200)
        assert results[3:] == ['again'] and again.fired
        assert len(queue) == 0 and not queue._heap
        assert sim.events_processed == 4

    def test_none_allocates_a_handle(self):
        sim = Simulator()
        results = []
        handle = sim.rearm(None, 7, results.append, 'new')
        sim.run_until(100)
        assert results == ['new']
        assert handle.fired and handle.time == 7

    def test_seq_rises_by_one_per_rearm(self):
        sim = Simulator()
        handle = self._fired(sim, [])
        before = sim._queue._seq
        handle = sim.rearm(handle, 5, lambda: None)
        assert sim._queue._seq == before + 1 == handle.seq
        handle.cancel()
        handle = sim.rearm(handle, 5, lambda: None)
        assert sim._queue._seq == before + 2 == handle.seq

    def test_len_across_fire_rearm_cancel(self):
        sim = Simulator()
        queue = sim._queue
        handle = self._fired(sim, [])
        assert len(queue) == 0
        assert sim.rearm(handle, 5, lambda: None) is handle
        assert len(queue) == 1
        handle.cancel()
        handle.cancel()
        assert len(queue) == 0
        handle = sim.rearm(handle, 5, lambda: None)
        assert len(queue) == 1
        sim.run_until(100)
        assert len(queue) == 0
        sim.rearm(handle, 5, lambda: None)
        handle.cancel()
        sim.run_until(200)
        # Drained: its cancelled entry surfaced and was dropped, the
        # handle stays cancelled and a second cancel is a no-op.
        assert handle.seq == CANCELLED_SEQ and not queue._heap
        handle.cancel()
        assert len(queue) == 0
        fresh = sim.rearm(handle, 5, lambda: None)
        assert fresh is not handle and handle.cancelled
        assert len(queue) == 1 and len(queue._heap) == 1
        sim.run_until(300)
        assert fresh.fired and len(queue) == 0
        assert sim.rearm(fresh, 5, lambda: None) is fresh
        assert len(queue) == 1


class TestReservedKeys:
    """``reserve_seq``, ``at_key``, ``peek_key`` and ``run_end``: the
    primitives that let a model keep an event's key without its event."""

    def test_reserved_key_fires_at_its_reserved_place(self):
        sim = Simulator()
        results = []
        sim.after(10, results.append, 'a')
        seq = sim.reserve_seq()
        sim.after(10, results.append, 'c')
        assert seq == 2 and sim._queue._seq == 3
        # Nothing was pushed for the reserved key.
        assert len(sim._queue._heap) == 2
        handle = sim.at_key(10, seq, results.append, 'b')
        assert (handle.time, handle.seq) == (10, seq) and handle.pending
        assert sim._queue._seq == 3
        sim.run_until(10)
        assert results == ['a', 'b', 'c']

    def test_at_key_refuses_the_past(self):
        sim = Simulator()
        sim.run_until(10)
        seq = sim.reserve_seq()
        with pytest.raises(SimulationError):
            sim.at_key(9, seq, lambda: None)
        assert not sim._queue._heap
        assert sim.at_key(10, seq, lambda: None).pending

    def test_an_event_at_a_dead_entrys_key_fires_once(self):
        """A keyed timer that moved its event earlier may arm a fresh
        one back at the key it left while that key's dead entry is still
        queued. The two entries tie on ``(time, seq)``; the fresh event
        fires exactly once, in the key's place, and the old handle stays
        cancelled."""
        sim = Simulator()
        results = []
        seq = sim.reserve_seq()
        left = sim.at_key(20, seq, results.append, 'left')
        sim.after(20, results.append, 'later')
        left.cancel()
        moved = sim.at_key(10, sim.reserve_seq(), results.append, 'moved')
        moved.cancel()
        back = sim.at_key(20, seq, results.append, 'back')
        assert back is not left and left.cancelled and back.pending
        assert sorted(entry[:2] for entry in sim._queue._heap) == [
            (10, 3), (20, 1), (20, 1), (20, 2)]
        assert sim.peek_key() == (20, 1)
        assert sim.run_until(100) == 2
        assert results == ['back', 'later']
        assert back.fired and left.cancelled and moved.cancelled
        assert not sim._queue._heap

    def test_peek_key_settles_stale_heads(self):
        sim = Simulator()
        assert sim.peek_key() is None
        dropped = sim.after(5, lambda: None)
        moved = sim.after(7, lambda: None)
        live = sim.after(9, lambda: None)
        dropped.cancel()
        moved.cancel()
        fresh = sim.rearm(moved, 12, lambda: None)
        assert sim.peek_key() == (live.time, live.seq) == (9, 3)
        # Both cancelled heads were dropped; the fresh event holds 12.
        assert dropped.cancelled and moved.cancelled
        assert sorted(entry[:2] for entry in sim._queue._heap) == [
            (9, 3), (12, 4)]
        live.cancel()
        assert sim.peek_key() == (12, 4)
        fresh.cancel()
        assert sim.peek_key() is None and not sim._queue._heap

    def test_run_end_is_set_only_inside_run_until(self):
        sim = Simulator()
        seen = []

        def record():
            seen.append(sim.run_end)
        sim.after(5, record)
        assert sim.run_end is None
        sim.run_until(10)
        sim.after(5, record)
        sim.step()
        sim.after(5, record)
        sim.run_until_idle()
        assert seen == [10, None, None]
        assert sim.run_end is None

        def fail():
            raise RuntimeError('boom')
        sim.after(5, fail)
        with pytest.raises(RuntimeError):
            sim.run_until(100)
        assert sim.run_end is None

    def test_stop_clears_run_end_for_the_rest_of_the_event(self):
        """After ``stop`` the caller acts next, so a model settling work
        ahead of the clock must see no run end."""
        sim = Simulator()
        seen = []

        def stop_then_look():
            seen.append(sim.run_end)
            sim.stop()
            seen.append(sim.run_end)
        sim.after(5, stop_then_look)
        sim.after(6, seen.append, 'not reached')
        assert sim.run_until(10) == 1
        assert seen == [10, None] and sim.now == 5

    def test_again_at_rearms_the_dispatched_event_at_a_reserved_key(self):
        sim = Simulator()
        results = []
        reserved = []

        def fire(name):
            results.append((sim.now, name))
            if len(results) == 1:
                sim.again_at(20, reserved[0])
        sim.after(10, fire, 'timer')
        reserved.append(sim.reserve_seq())
        sim.after(10, lambda: None)
        sim.after(20, results.append, 'later draw')
        heap = sim._queue._heap
        sim.run_until(30)
        # Drawn before the 'later draw' event: fires first at t=20, with
        # its own callback and args, and nothing else was drawn.
        assert results == [(10, 'timer'), (20, 'timer'), 'later draw']
        assert sim._queue._seq == 4 and not heap

    def test_again_at_refuses_outside_a_dispatch_twice_and_the_past(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.again_at(5, sim.reserve_seq())
        errors = []

        def twice():
            sim.again_at(20, sim.reserve_seq())
            try:
                sim.again_at(30, sim.reserve_seq())
            except SimulationError as error:
                errors.append(error)

        def past():
            try:
                sim.again_at(sim.now - 1, sim.reserve_seq())
            except SimulationError as error:
                errors.append(error)
        sim.after(10, twice)
        sim.after(11, past)
        sim.run_until(15)
        assert len(errors) == 2
        assert sim.peek_key()[0] == 20


def _periodic_model(sim, rearm):
    """Two chains with 10 ns and 15 ns periods plus one-shots at shared
    instants, re-armed through ``rearm(delay, callback, *args)`` (which
    returns the new ``seq``). Returns the ``(now, name, seq)`` log."""
    log = []

    def tick(name, period):
        if sim.now < 60:
            log.append((sim.now, name, rearm(period, tick, name, period)))
        else:
            log.append((sim.now, name, None))

    def one_shot(name):
        log.append((sim.now, name, None))
    sim.after(10, tick, 'fast', 10)
    sim.after(15, tick, 'slow', 15)
    for time in (30, 45, 60):
        sim.at(time, one_shot, 'shot@%d' % time)
    sim.run_until_idle()
    return log


class TestAgain:
    """``Simulator.again``: the dispatched event re-arms itself with its
    own callback and args, drawing ``seq`` exactly as ``after`` would."""

    def test_chain_matches_after(self, sim):
        def with_after(delay, callback, *args):
            return sim_after.after(delay, callback, *args).seq

        def with_again(delay, callback, *args):
            sim.again(delay)
            return sim.last_event.seq
        sim_after = Simulator(seed=42)
        expected = _periodic_model(sim_after, with_after)
        assert _periodic_model(sim, with_again) == expected
        # Same-instant ties fire in seq order: the one-shot was
        # scheduled first, and slow re-armed (at 15) before fast (at 20).
        assert [entry[:2] for entry in expected[:6]] == [
            (10, 'fast'), (15, 'slow'), (20, 'fast'), (30, 'shot@30'),
            (30, 'slow'), (30, 'fast')]
        assert sim._queue._seq == sim_after._queue._seq
        assert sim.events_processed == sim_after.events_processed

    def test_keeps_the_handle(self, sim):
        results = []

        def tick():
            results.append(sim.now)
            if len(results) < 4:
                sim.again(10)
        handle = sim.after(10, tick)
        sim.run_until_idle()
        assert results == [10, 20, 30, 40]
        assert handle.fired and handle.time == 40
        assert sim.last_event is handle
        assert sim.pending_events == 0

    def test_outside_a_dispatch_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.again(10)
        handle = sim.after(10, lambda: None)
        sim.run_until(100)
        assert sim.last_event is handle and handle.fired
        with pytest.raises(SimulationError):
            sim.again(10)
        assert handle.fired
        assert sim._queue._seq == 1
        assert sim.pending_events == 0

    def test_outside_a_dispatch_after_a_callback_raised(self, sim):
        def boom():
            raise RuntimeError('boom')
        handle = sim.after(10, boom)
        with pytest.raises(RuntimeError):
            sim.run_until(100)
        with pytest.raises(SimulationError):
            sim.again(10)
        assert handle.fired and sim.pending_events == 0

    def test_second_call_from_one_callback_raises(self, sim):
        results = []

        def tick():
            sim.again(10)
            with pytest.raises(SimulationError):
                sim.again(20)
            results.append((sim.now, sim._queue._seq, len(sim._queue)))
        handle = sim.after(10, tick)
        sim.run_until(15)
        assert results == [(10, 2, 1)]
        assert handle.pending and handle.time == 20

    def test_negative_delay_raises(self, sim):
        results = []

        def tick():
            with pytest.raises(SimulationError):
                sim.again(-1)
            results.append(sim.now)
        handle = sim.after(10, tick)
        sim.run_until_idle()
        assert results == [10]
        assert handle.fired
        assert sim._queue._seq == 1
        assert sim.pending_events == 0

    def test_cancel_and_len_across_fire_again_cancel(self, sim):
        queue = sim._queue
        lens = []

        def tick(cancel_now):
            lens.append(len(queue))
            sim.again(10)
            lens.append(len(queue))
            if cancel_now:
                sim.last_event.cancel()
                lens.append(len(queue))
        handle = sim.after(10, tick, False)
        assert len(queue) == 1
        sim.run_until(10)
        assert lens == [0, 1]
        assert handle.pending and handle.time == 20
        assert len(queue) == 1
        handle.cancel()
        handle.cancel()
        assert handle.cancelled and len(queue) == 0
        assert sim.run_until(100) == 0
        # Cancelled from inside its own callback, right after again().
        lens.clear()
        other = sim.after(10, tick, True)
        sim.run_until(200)
        assert lens == [0, 1, 0]
        assert other.cancelled and len(queue) == 0
        # Its stale entry (t=120) surfaced and was dropped inside
        # run_until(200); rearm() gives the cancelled handle a fresh
        # Event.
        assert not queue._heap
        fresh = sim.rearm(other, 5, lambda: None)
        assert fresh is not other and other.cancelled and fresh.pending
        assert len(queue) == 1 and len(queue._heap) == 1


_DELAYS = st.integers(0, 30)
_AGAINS = st.tuples(st.integers(0, 2), st.integers(1, 15))
_SLOTS = st.integers(0, 7)
_STEPS = st.lists(st.one_of(
    st.tuples(st.just('after'), _DELAYS, _AGAINS),
    st.tuples(st.just('at'), _DELAYS, _AGAINS),
    st.tuples(st.just('call_soon'), st.just(0), _AGAINS),
    st.tuples(st.just('cancel'), _SLOTS),
    st.tuples(st.just('rearm'), _SLOTS, _DELAYS, _AGAINS),
    st.tuples(st.just('run'), st.integers(0, 25)),
), max_size=40)


class TestRekeyModel:
    """``after``, ``at``, ``call_soon``, ``cancel``, ``rearm``,
    ``again`` from a callback and ``run_until`` against a sorted
    ``(time, seq)`` reference: the same firing order, pending count,
    ``seq`` draws and handle states, and one heap entry, a live one,
    per pending handle. ``rearm`` reuses a fired handle and gives a
    cancelled one a fresh Event, and a cancelled handle stays
    cancelled."""

    @settings(max_examples=300, deadline=None)
    @given(steps=_STEPS)
    def test_matches_a_sorted_reference(self, steps):
        sim = Simulator()
        queue = sim._queue
        # Cancelled handles that rearm() replaced.
        handles, plans, fired, retired = [], [], [], []
        # The reference: slot -> (time, seq) of every pending event,
        # each slot's state, the seq counter, each slot's again() plan,
        # the firing log.
        pending, states, ref_plans, ref_fired = {}, [], [], []
        ref_seq = 0

        def callback(slot):
            fired.append((slot, sim.now))
            left, delay = plans[slot]
            if left:
                plans[slot] = (left - 1, delay)
                sim.again(delay)

        for step in steps:
            kind = step[0]
            if kind in ('after', 'at', 'call_soon'):
                __, delay, plan = step
                slot = len(handles)
                if kind == 'after':
                    handle = sim.after(delay, callback, slot)
                elif kind == 'at':
                    handle = sim.at(sim.now + delay, callback, slot)
                else:
                    handle = sim.call_soon(callback, slot)
                handles.append(handle)
                plans.append(plan)
                ref_seq += 1
                pending[slot] = (sim.now + delay, ref_seq)
                states.append('pending')
                ref_plans.append(plan)
            elif kind == 'cancel' and handles:
                slot = step[1] % len(handles)
                handles[slot].cancel()
                if pending.pop(slot, None) is not None:
                    states[slot] = 'cancelled'
            elif kind == 'rearm' and handles:
                __, slot, delay, plan = step
                slot %= len(handles)
                if slot in pending:
                    with pytest.raises(SimulationError):
                        sim.rearm(handles[slot], delay, callback, slot)
                else:
                    old = handles[slot]
                    handles[slot] = sim.rearm(old, delay, callback, slot)
                    if states[slot] == 'cancelled':
                        assert handles[slot] is not old
                        retired.append(old)
                    else:
                        assert handles[slot] is old
                    plans[slot] = ref_plans[slot] = plan
                    ref_seq += 1
                    pending[slot] = (sim.now + delay, ref_seq)
                    states[slot] = 'pending'
            elif kind == 'run':
                end = sim.now + step[1]
                sim.run_until(end)
                while pending:
                    slot, (time, __) = min(pending.items(),
                                           key=lambda item: item[1])
                    if time > end:
                        break
                    del pending[slot]
                    ref_fired.append((slot, time))
                    states[slot] = 'fired'
                    left, delay = ref_plans[slot]
                    if left:
                        ref_plans[slot] = (left - 1, delay)
                        ref_seq += 1
                        pending[slot] = (time + delay, ref_seq)
                        states[slot] = 'pending'
                assert sim.now == end
            assert fired == ref_fired
            assert len(queue) == len(pending)
            assert queue._seq == ref_seq
            assert [(event.time, event.seq)
                    for event in queue.peek_events(len(handles))] == \
                sorted(pending.values())
            assert [(h.pending, h.fired, h.cancelled) for h in handles] \
                == [(s == 'pending', s == 'fired', s == 'cancelled')
                    for s in states]
            assert all(h.seq == CANCELLED_SEQ for h in retired)
            # Each pending handle owns exactly one heap entry, live at
            # its key; every other entry is a cancelled handle's.
            owners = [id(entry[2]) for entry in queue._heap]
            for handle in handles:
                if handle.pending:
                    assert owners.count(id(handle)) == 1
            assert all(entry[1] == entry[2].seq
                       or entry[2].seq == CANCELLED_SEQ
                       for entry in queue._heap)

    def test_livelock_error_lists_a_rekeyed_handle_at_its_new_time(self):
        sim = Simulator()

        def spin():
            sim.again(1)

        def parked():
            pass
        handle = sim.after(100, parked)
        handle.cancel()
        sim.after(1, spin)
        assert sim.rearm(handle, 200, parked) is not handle
        with pytest.raises(LivelockError) as err:
            sim.run_until(10**6, max_events=10)
        exc = err.value
        # The stale entry (t=100) has not surfaced yet.
        assert any(entry[0] == 100 for entry in sim._queue._heap)
        assert exc.pending == 2
        assert [time for time, __ in exc.next_events] == [sim.now + 1, 200]
        assert 'parked' in exc.next_events[1][1]


def _dispatch_callees(stats):
    """``{(file tail, function name): calls}`` of every function that
    ``Simulator.step`` called in a ``pstats`` mapping."""
    callees = {}
    for (filename, __, name), row in stats.items():
        callers = row[4]
        for (caller_file, __, caller_name), edge in callers.items():
            if caller_name == 'step' and caller_file.endswith(
                    'simulation.py'):
                key = (os.path.basename(filename), name)
                callees[key] = callees.get(key, 0) + edge[0]
    return callees


class TestDispatchContract:
    """Facts the per-layer benchmark attribution relies on: ``step`` is
    the sole dispatcher (its only callees are ``EventQueue.pop``, the
    event callbacks and the post-event hooks), and the queue's sequence
    number counts every scheduled event."""

    def _model(self, sim):
        def tick(n):
            if n:
                sim.after(7, tick, n - 1)
                sim.call_soon(soon)

        def soon():
            pass

        def never():
            pass
        for i in range(4):
            sim.at(i, tick, 5)
        sim.after(3, never).cancel()
        return 4 + 1 + 4 * 5 * 2

    def test_step_calls_only_pop_callbacks_and_hooks(self):
        sim = Simulator()
        hooked = []

        def hook(event):
            hooked.append(event)
        sim.add_post_event_hook(hook)
        self._model(sim)
        profile = cProfile.Profile()
        profile.enable()
        fired = sim.run_until(10**6)
        profile.disable()
        callees = _dispatch_callees(pstats.Stats(profile).stats)
        assert fired == sim.events_processed == 44
        expected = {
            ('events.py', 'pop'): fired,
            ('test_simkernel_simulation.py', 'tick'): 24,
            ('test_simkernel_simulation.py', 'soon'): 20,
        }
        # Every registered hook (a runtime sanitizer may add its own).
        for each in sim._post_event_hooks:
            code = each.__code__
            expected[(os.path.basename(code.co_filename),
                      code.co_name)] = fired
        assert callees == expected
        assert len(hooked) == fired

    def test_queue_seq_counts_scheduled_events(self):
        sim = Simulator()
        scheduled = self._model(sim)
        sim.run_until_idle()
        assert sim._queue._seq == scheduled
        assert sim.events_processed == scheduled - 1
