"""The simulator: a clock plus an event queue plus shared services.

Every model object (hypervisor scheduler, guest kernel, workload program)
holds a reference to one :class:`Simulator` and advances exclusively by
scheduling callbacks on it. The simulator is single-threaded and
deterministic: given the same seed and model, two runs produce identical
event sequences.
"""

from heapq import heappop, heappush

from .events import Event, EventQueue
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
        pending: number of live events left in the queue.
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
        self.sanitizer = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def at(self, time, callback, *args):
        """Schedule ``callback(*args)`` at absolute time ``time``."""
        if time < self.now:
            raise SimulationError(
                'cannot schedule at %d, now is %d' % (time, self.now))
        return self._queue.schedule(time, callback, *args)

    def after(self, delay, callback, *args):
        """Schedule ``callback(*args)`` ``delay`` ns from now."""
        if delay < 0:
            raise SimulationError('negative delay %d' % delay)
        # A hot scheduling call (and the model of rearm() below): push
        # straight onto the heap, as EventQueue.schedule would.
        queue = self._queue
        time = self.now + delay
        seq = queue._seq = queue._seq + 1
        event = Event(time, seq, callback, args, queue)
        heappush(queue._heap, (time, seq, event))
        queue._live += 1
        return event

    def rearm(self, handle, delay, callback, *args):
        """Schedule ``callback(*args)`` ``delay`` ns from now through
        ``handle``; return the scheduled handle.

        A fired ``handle`` is reused in place: it takes the new time and
        the next ``seq`` (the same counter as :meth:`after`), so a
        periodic timer costs no allocation per period. ``None`` or a
        cancelled handle gets a fresh :class:`Event`, since a cancelled
        handle still has a stale heap entry that reuse would revive. A
        still-pending handle raises :class:`SimulationError`."""
        if delay < 0:
            raise SimulationError('negative delay %d' % delay)
        queue = self._queue
        time = self.now + delay
        if handle is None or handle.cancelled:
            seq = queue._seq = queue._seq + 1
            handle = Event(time, seq, callback, args, queue)
        elif handle.fired:
            seq = queue._seq = queue._seq + 1
            handle.time = time
            handle.seq = seq
            handle.callback = callback
            handle.args = args
            handle.fired = False
            # EventQueue.clear detaches the handles it drops.
            handle._queue = queue
        else:
            raise SimulationError('cannot re-arm pending %r' % (handle,))
        heappush(queue._heap, (time, seq, handle))
        queue._live += 1
        return handle

    def call_soon(self, callback, *args):
        """Schedule ``callback(*args)`` at the current time (after any
        event currently firing completes)."""
        return self._queue.schedule(self.now, callback, *args)

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
        """Make the current run loop return after the in-flight event."""
        self._stopped = True

    def step(self):
        """Process one event. Returns False when the queue is empty.

        The only dispatcher: besides ``EventQueue.pop`` it calls just the
        event's callback and the post-event hooks (DESIGN.md §7)."""
        event = self._queue.pop()
        if event is None:
            return False
        time = event.time
        if time < self.now:
            raise SimulationError(
                'event at %d in the past (now %d)' % (time, self.now))
        self.now = time
        self._events_processed += 1
        self._last_event = event
        event.callback(*event.args)
        if self._post_event_hooks:
            for hook in self._post_event_hooks:
                hook(event)
        return True

    def run_until(self, end_time, max_events=None):
        """Run until the clock passes ``end_time``, the queue drains, or
        ``stop()`` is called. Returns the number of events processed.

        ``max_events`` is a safety valve for tests: exceeding it raises
        :class:`LivelockError` with a summary of the pending events (it
        indicates a livelock in the model).
        """
        processed = 0
        self._stopped = False
        heap = self._queue._heap
        step = self.step
        # The heap head is inspected once per event here; step() then
        # pops that same (live) head.
        while not self._stopped:
            while heap and heap[0][2].cancelled:
                heappop(heap)
            if not heap or heap[0][0] > end_time:
                self.now = max(self.now, end_time)
                break
            step()
            processed += 1
            if max_events is not None and processed > max_events:
                raise LivelockError(max_events, 'before %d' % end_time,
                                    self._queue, self.now)
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
        """Number of live events in the queue."""
        return len(self._queue)

    @property
    def events_processed(self):
        """Total events processed since construction."""
        return self._events_processed
