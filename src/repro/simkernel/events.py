"""Cancellable event queue for discrete-event simulation.

The queue is a binary heap of ``(time, sequence, Event)`` entries. Events
are totally ordered: ties in time break on the monotonically increasing
sequence number, so two events scheduled for the same instant fire in the
order they were scheduled. Cancellation is lazy — a cancelled event stays
in the heap and is discarded when it reaches the head — which keeps both
``schedule`` and ``cancel`` O(log n) worst case and O(1) amortized for
cancel.

An entry is live while its ``sequence`` equals its event's ``seq``.
Cancelling writes :data:`CANCELLED_SEQ`, and ``Simulator.rearm`` may
re-key a cancelled handle to a later ``(time, seq)`` without a push, so
a head entry whose ``sequence`` no longer matches is *stale*:
:func:`settle_head` drops it (cancelled) or pushes it back at its
handle's current key (re-keyed). Either way the head check stays one
comparison, ``entry[1] != entry[2].seq``.
"""

from heapq import heappop, heappush, heapreplace

#: The ``seq`` of a cancelled :class:`Event`: matches no heap entry.
CANCELLED_SEQ = -1


class Event:
    """A scheduled callback. Returned by :meth:`EventQueue.schedule`.

    Instances are handles: hold one to :meth:`cancel` the event before it
    fires. An event fires at most once per scheduling;
    :meth:`Simulator.rearm <repro.simkernel.simulation.Simulator.rearm>`
    and ``Simulator.again`` may schedule a fired handle again, and
    ``rearm`` re-keys a cancelled one in place. ``seq`` is
    :data:`CANCELLED_SEQ` while cancelled. ``_queue`` is the queue the
    handle was scheduled on; it is None once the queue dropped the
    handle's heap entry without firing it (:meth:`EventQueue.clear`,
    or a cancelled entry reaching the head).
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
            self.seq = CANCELLED_SEQ
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


def settle_head(heap):
    """Resolve the stale entry at the head of ``heap``: drop it if its
    event is cancelled (detaching the handle), else push it back at the
    event's current ``(time, seq)``. A re-key only ever moves a handle
    later, so the pushed-back entry still fires in key order."""
    event = heap[0][2]
    if event.cancelled:
        heappop(heap)
        event._queue = None
    else:
        heapreplace(heap, (event.time, event.seq, event))


class EventQueue:
    """Priority queue of :class:`Event` objects ordered by (time, seq).

    :meth:`Simulator.after <repro.simkernel.simulation.Simulator.after>`,
    ``Simulator.rearm`` and ``Simulator.again`` push onto ``_heap``
    directly and ``Simulator.run_until`` settles stale heads inline
    (:func:`settle_head`), so they depend on the ``(time, seq, event)``
    entry layout and on ``_seq``/``_live``; a change to either updates
    them too.
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
        while heap:
            entry = heap[0]
            if entry[1] == entry[2].seq:
                return entry[0]
            settle_head(heap)
        return None

    def pop(self):
        """Remove and return the earliest live event, or None if empty.

        The returned event is marked fired; the caller invokes its
        callback. Stale heads are settled on the way (see
        :func:`settle_head`).
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            event = entry[2]
            if entry[1] == event.seq:
                heappop(heap)
                event.fired = True
                self._live -= 1
                return event
            settle_head(heap)
        return None

    def peek_events(self, n):
        """The next ``n`` live events in firing order, without popping.
        A re-keyed handle is listed at its current time, not at its
        stale entry's.

        O(heap) — intended for diagnostics (livelock reports), not for
        the hot path.
        """
        live = sorted((event.time, event.seq, event)
                      for __, __, event in self._heap
                      if not event.cancelled)
        return [event for __, __, event in live[:n]]

    def clear(self):
        """Drop every pending event."""
        for __, __, event in self._heap:
            event._queue = None
        self._heap.clear()
        self._live = 0
