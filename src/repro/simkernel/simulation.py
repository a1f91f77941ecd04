"""The simulator: a clock plus an event queue plus shared services.

Every model object (hypervisor scheduler, guest kernel, workload program)
holds a reference to one :class:`Simulator` and advances exclusively by
scheduling callbacks on it. The simulator is single-threaded and
deterministic: given the same seed and model, two runs produce identical
event sequences.
"""

from heapq import heappop, heappush

from .events import FIRED_SEQ, Event, EventQueue
from .rng import RngRegistry
from .tracing import Tracer


class SimulationError(Exception):
    """Raised for structural errors in the simulation (e.g. time travel)."""


class LivelockError(SimulationError):
    """A run loop exhausted its ``max_events`` budget.

    Carries a structured summary of the still-pending events so a
    livelocking model (e.g. a fault campaign that keeps re-arming
    retries) can be debugged from the exception alone.

    Attributes:
        limit: the exhausted ``max_events`` budget.
        pending: number of pending events left in the queue.
        next_events: up to :attr:`SUMMARY_DEPTH` upcoming events
            (firing order) as ``(time_ns, callback_name)`` pairs.
    """

    SUMMARY_DEPTH = 5

    def __init__(self, limit, context, queue, now):
        self.limit = limit
        self.pending = len(queue)
        self.next_events = [
            (event.time, _callback_name(event.callback))
            for event in queue.peek_events(self.SUMMARY_DEPTH)
        ]
        deadlines = ', '.join('t=%d %s' % pair for pair in self.next_events)
        super().__init__(
            'exceeded %d events %s (now=%d): %d events still pending'
            '%s' % (limit, context, now, self.pending,
                    '; next: ' + deadlines if deadlines else ''))


def _callback_name(callback):
    return getattr(callback, '__qualname__',
                   getattr(callback, '__name__', repr(callback)))


class Simulator:
    """Discrete-event simulation driver.

    Attributes:
        now: current simulation time in integer nanoseconds.
        rng: the :class:`RngRegistry` for all model randomness.
        trace: the :class:`Tracer` holding the run's metric registry
            and span recorder.
        sanitizer: optional runtime invariant checker (see
            :mod:`repro.simkernel.sanitizer`); machines attach
            themselves to it on construction when present.
        run_end: the end time of the :meth:`run_until` call in
            progress, None outside one (and once :meth:`stop` is
            called).
    """

    def __init__(self, seed=0):
        self.now = 0
        self._queue = EventQueue()
        self.rng = RngRegistry(seed)
        self.trace = Tracer()
        self._stopped = False
        self._events_processed = 0
        self._post_event_hooks = []
        self._last_event = None
        # The event whose callback is running (None between dispatches):
        # the handle again() re-arms.
        self._firing = None
        # The end time of the run_until call in progress; None outside
        # one, when a caller may act between any two events.
        self.run_end = None
        self.sanitizer = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def at(self, time, callback, *args):
        """Schedule ``callback(*args)`` at absolute time ``time``."""
        if time < self.now:
            raise SimulationError(
                'cannot schedule at %d, now is %d' % (time, self.now))
        return self.after(time - self.now, callback, *args)

    def after(self, delay, callback, *args):
        """Schedule ``callback(*args)`` ``delay`` ns from now."""
        if delay < 0:
            raise SimulationError('negative delay %d' % delay)
        queue = self._queue
        time = self.now + delay
        seq = queue._seq = queue._seq + 1
        event = Event(time, seq, callback, args)
        heappush(queue._heap, (time, seq, event))
        return event

    def rearm(self, handle, delay, callback, *args):
        """Schedule ``callback(*args)`` ``delay`` ns from now through
        ``handle``; return the scheduled handle.

        The handle takes the new time and the next ``seq`` (the same
        counter as :meth:`after`), so a timer costs no allocation per
        period. A fired handle is reused with a push; ``None`` or a
        cancelled handle gets a fresh :class:`Event` (a cancelled one
        stays cancelled); a still-pending handle raises
        :class:`SimulationError`."""
        if delay < 0:
            raise SimulationError('negative delay %d' % delay)
        if handle is not None and handle.seq != FIRED_SEQ:
            if handle.seq > 0:
                raise SimulationError('cannot re-arm pending %r' % (handle,))
            handle = None
        queue = self._queue
        time = self.now + delay
        seq = queue._seq = queue._seq + 1
        if handle is None:
            handle = Event(time, seq, callback, args)
        else:
            handle.time = time
            handle.seq = seq
            handle.callback = callback
            handle.args = args
        heappush(queue._heap, (time, seq, handle))
        return handle

    def at_key(self, time, seq, callback, *args):
        """Schedule ``callback(*args)`` at the explicit key ``(time,
        seq)`` and return its fresh :class:`Event`.

        ``seq`` is a key drawn earlier with :meth:`reserve_seq`, so the
        event fires where an event scheduled at that draw would."""
        if time < self.now:
            raise SimulationError(
                'cannot schedule at %d, now is %d' % (time, self.now))
        event = Event(time, seq, callback, args)
        heappush(self._queue._heap, (time, seq, event))
        return event

    def reserve_seq(self):
        """Draw the next ``seq`` without scheduling anything, and return
        it: the key of an event armed later with :meth:`at_key` or
        :meth:`again_at`, which then keeps the place among same-instant
        events that an event scheduled now would have."""
        queue = self._queue
        seq = queue._seq = queue._seq + 1
        return seq

    def peek_key(self):
        """The ``(time, seq)`` key of the next live event, or None when
        none is queued. Stale heads are dropped on the way, as
        ``EventQueue.pop`` would drop them."""
        heap = self._queue._heap
        while heap:
            entry = heap[0]
            if entry[1] == entry[2].seq:
                return entry[0], entry[1]
            heappop(heap)
        return None

    def again(self, delay):
        """Re-arm the event being dispatched ``delay`` ns from now, with
        its own callback and args: the periodic timer's re-arm.

        Like :meth:`rearm` on a fired handle, it takes the next ``seq``
        and allocates nothing. Raises :class:`SimulationError` outside
        a dispatch, on a second call from the same callback (the handle
        is no longer fired) and for a negative delay."""
        event = self._firing
        if event is None or event.seq != FIRED_SEQ:
            raise SimulationError('again() needs the firing event')
        if delay < 0:
            raise SimulationError('negative delay %d' % delay)
        queue = self._queue
        time = event.time = self.now + delay
        seq = event.seq = queue._seq = queue._seq + 1
        heappush(queue._heap, (time, seq, event))

    def again_at(self, time, seq):
        """Re-arm the event being dispatched at the explicit key
        ``(time, seq)``, drawn earlier with :meth:`reserve_seq`, with
        its own callback and args: :meth:`again` for a keyed timer.
        Raises :class:`SimulationError` outside a dispatch, on a second
        call from the same callback and for a time before now."""
        event = self._firing
        if event is None or event.seq != FIRED_SEQ:
            raise SimulationError('again_at() needs the firing event')
        if time < self.now:
            raise SimulationError(
                'cannot schedule at %d, now is %d' % (time, self.now))
        event.time = time
        event.seq = seq
        heappush(self._queue._heap, (time, seq, event))

    def call_soon(self, callback, *args):
        """Schedule ``callback(*args)`` at the current time (after any
        event currently firing completes)."""
        return self.after(0, callback, *args)

    # ------------------------------------------------------------------
    # Post-event hooks
    # ------------------------------------------------------------------

    def add_post_event_hook(self, hook):
        """Register ``hook(event)`` to run after every processed event.

        Used by the runtime sanitizer; hooks must not mutate model
        state. Returns the hook for symmetry with removal."""
        self._post_event_hooks.append(hook)
        return hook

    def remove_post_event_hook(self, hook):
        """Unregister a hook added with :meth:`add_post_event_hook`."""
        if hook in self._post_event_hooks:
            self._post_event_hooks.remove(hook)

    @property
    def last_event(self):
        """The most recently fired event (None before the first)."""
        return self._last_event

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def stop(self):
        """Make the current run loop return after the in-flight event.
        :attr:`run_end` is None from here on: the caller acts next."""
        self._stopped = True
        self.run_end = None

    def step(self, until=None):
        """Process one event. Returns False when the queue is empty or,
        with ``until``, when the next event is due later than ``until``
        (nothing is then popped and the clock does not move).

        The only dispatcher: besides ``EventQueue.pop`` it calls just the
        event's callback and the post-event hooks (DESIGN.md §7)."""
        event = self._queue.pop(until)
        if event is None:
            return False
        time = event.time
        if time < self.now:
            raise SimulationError(
                'event at %d in the past (now %d)' % (time, self.now))
        self.now = time
        self._events_processed += 1
        self._last_event = self._firing = event
        try:
            event.callback(*event.args)
        finally:
            self._firing = None
        if self._post_event_hooks:
            for hook in self._post_event_hooks:
                hook(event)
        return True

    def run_until(self, end_time, max_events=None):
        """Run until the clock passes ``end_time``, the queue drains, or
        ``stop()`` is called. Returns the number of events processed.

        While it runs, :attr:`run_end` is ``end_time``: no caller acts
        between its events, so a model may settle work due before the
        end without an event per step.

        ``max_events`` is a safety valve for tests: exceeding it raises
        :class:`LivelockError` with a summary of the pending events (it
        indicates a livelock in the model).
        """
        processed = 0
        self._stopped = False
        heap = self._queue._heap
        step = self.step
        self.run_end = end_time
        try:
            while not self._stopped:
                # An empty heap skips the call: pop would return None.
                if not (heap and step(end_time)):
                    self.now = max(self.now, end_time)
                    break
                processed += 1
                if max_events is not None and processed > max_events:
                    raise LivelockError(max_events, 'before %d' % end_time,
                                        self._queue, self.now)
        finally:
            self.run_end = None
        return processed

    def run_until_idle(self, max_events=10_000_000):
        """Run until no events remain (or ``stop()``). Returns event count.

        Exceeding ``max_events`` raises :class:`LivelockError` with the
        pending-event summary."""
        processed = 0
        self._stopped = False
        while not self._stopped and self.step():
            processed += 1
            if processed > max_events:
                raise LivelockError(max_events, 'while draining',
                                    self._queue, self.now)
        return processed

    @property
    def pending_events(self):
        """Number of pending events in the queue. O(queue): for
        diagnostics only."""
        return len(self._queue)

    @property
    def events_processed(self):
        """Total events processed since construction."""
        return self._events_processed
