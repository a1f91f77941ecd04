"""Cancellable event queue for discrete-event simulation.

The queue is a binary heap of ``(time, sequence, Event)`` entries. Events
are totally ordered: ties in time break on the monotonically increasing
sequence number, so two events scheduled for the same instant fire in the
order they were scheduled. Cancellation is lazy — a cancelled event stays
in the heap and is discarded when popped — which keeps both ``schedule``
and ``cancel`` O(log n) worst case and O(1) amortized for cancel.
"""

from heapq import heappop, heappush


class Event:
    """A scheduled callback. Returned by :meth:`EventQueue.schedule`.

    Instances are handles: hold one to :meth:`cancel` the event before it
    fires. An event fires at most once per scheduling;
    :meth:`Simulator.rearm <repro.simkernel.simulation.Simulator.rearm>`
    and ``Simulator.again`` may schedule a fired handle again.
    """

    __slots__ = ('time', 'seq', 'callback', 'args', 'cancelled', 'fired',
                 '_queue')

    def __init__(self, time, seq, callback, args, queue=None):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self._queue = queue

    def cancel(self):
        """Prevent the event from firing. Safe to call more than once,
        and safe to call on an event that already fired (a no-op)."""
        if not self.cancelled and not self.fired:
            self.cancelled = True
            if self._queue is not None:
                self._queue._live -= 1

    @property
    def pending(self):
        """True while the event is scheduled and will still fire."""
        return not self.cancelled and not self.fired

    def __repr__(self):
        state = 'fired' if self.fired else (
            'cancelled' if self.cancelled else 'pending')
        name = getattr(self.callback, '__qualname__',
                       getattr(self.callback, '__name__', repr(self.callback)))
        return '<Event t=%d %s %s>' % (self.time, name, state)


class EventQueue:
    """Priority queue of :class:`Event` objects ordered by (time, seq).

    :meth:`Simulator.after <repro.simkernel.simulation.Simulator.after>`,
    ``Simulator.rearm`` and ``Simulator.again`` push onto ``_heap``
    directly and ``Simulator.run_until`` drops cancelled heads from it
    inline, so they depend on the ``(time, seq, event)`` entry layout and
    on ``_seq``/``_live``; a change to either updates them too.
    """

    def __init__(self):
        self._heap = []
        self._seq = 0
        self._live = 0

    def __len__(self):
        """Number of live (non-cancelled, unfired) events."""
        return self._live

    def __bool__(self):
        return self._live > 0

    def schedule(self, time, callback, *args):
        """Schedule ``callback(*args)`` at absolute ``time``; return handle."""
        if time < 0:
            raise ValueError('event time must be non-negative, got %r' % time)
        self._seq += 1
        event = Event(time, self._seq, callback, args, queue=self)
        heappush(self._heap, (time, self._seq, event))
        self._live += 1
        return event

    def peek_time(self):
        """Time of the earliest live event, or None if the queue is empty."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)
        return heap[0][0] if heap else None

    def pop(self):
        """Remove and return the earliest live event, or None if empty.

        The returned event is marked fired; the caller invokes its
        callback. Cancelled events are silently discarded.
        """
        heap = self._heap
        while heap:
            event = heappop(heap)[2]
            if not event.cancelled:
                event.fired = True
                self._live -= 1
                return event
        return None

    def peek_events(self, n):
        """The next ``n`` live events in firing order, without popping.

        O(heap) — intended for diagnostics (livelock reports), not for
        the hot path.
        """
        upcoming = []
        for __, __, event in sorted(self._heap):
            if event.cancelled:
                continue
            upcoming.append(event)
            if len(upcoming) >= n:
                break
        return upcoming

    def clear(self):
        """Drop every pending event."""
        for __, __, event in self._heap:
            event._queue = None
        self._heap.clear()
        self._live = 0
