"""Unit tests for the Simulator driver."""

import cProfile
import os
import pstats

import pytest

from repro.simkernel import LivelockError, SimulationError, Simulator


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
    cancelled or missing one is replaced; a pending one is refused."""

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

    def test_cancelled_handle_is_replaced(self):
        sim = Simulator()
        results = []
        stale = sim.after(10, results.append, 'stale')
        stale.cancel()
        fresh = sim.rearm(stale, 20, results.append, 'fresh')
        assert fresh is not stale
        assert stale.cancelled and fresh.pending
        sim.run_until(100)
        assert results == ['fresh']

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
        sim.rearm(handle, 5, lambda: None)
        assert len(queue) == 1
        handle.cancel()
        handle.cancel()
        assert len(queue) == 0
        handle = sim.rearm(handle, 5, lambda: None)
        assert len(queue) == 1
        sim.run_until(100)
        assert len(queue) == 0
        sim.rearm(handle, 5, lambda: None)
        queue.clear()
        assert len(queue) == 0
        # Dropped by clear(): cancelling the detached handle leaves the
        # count alone, and a replacement counts again.
        handle.cancel()
        assert len(queue) == 0
        handle = sim.rearm(handle, 5, lambda: None)
        assert len(queue) == 1
        sim.run_until(200)
        assert handle.fired and len(queue) == 0
        sim.rearm(handle, 5, lambda: None)
        assert len(queue) == 1


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
