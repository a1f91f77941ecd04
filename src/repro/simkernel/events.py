"""Cancellable event queue for discrete-event simulation.

The queue is a binary heap of ``(time, sequence, Event)`` entries. Events
are totally ordered: ties in time break on the monotonically increasing
sequence number, so two events scheduled for the same instant fire in the
order they were scheduled. Cancellation is lazy — a cancelled event stays
in the heap and is discarded when it reaches the head — which keeps both
a push and ``cancel`` O(log n) worst case and O(1) amortized for cancel.

``Event.seq`` is the one record of a handle's state: positive while
pending, :data:`FIRED_SEQ` once popped, :data:`CANCELLED_SEQ` once
cancelled. A cancelled handle is never armed again (``Simulator.rearm``
gives it a fresh :class:`Event`), so its entry is the only kind that
goes stale: an entry is live while its ``sequence`` equals its event's
``seq``, and a stale head is popped and dropped. The head check stays
one comparison, ``entry[1] != entry[2].seq``.
"""

from heapq import heappop

#: The ``seq`` of a fired :class:`Event` (the queue's counter starts at 1).
FIRED_SEQ = 0
#: The ``seq`` of a cancelled :class:`Event`.
CANCELLED_SEQ = -1


class Event:
    """A scheduled callback. Returned by :meth:`Simulator.after
    <repro.simkernel.simulation.Simulator.after>` (which ``at`` and
    ``call_soon`` call), ``Simulator.rearm`` and ``Simulator.at_key``.

    Instances are handles: hold one to :meth:`cancel` the event before it
    fires. An event fires at most once per scheduling;
    ``Simulator.rearm`` and ``Simulator.again`` may schedule a fired
    handle again, and a cancelled one stays cancelled.
    ``seq`` holds the handle's state (see the module docstring);
    ``pending``, ``fired`` and ``cancelled`` read it.
    """

    __slots__ = ('time', 'seq', 'callback', 'args')

    def __init__(self, time, seq, callback, args):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args

    def __lt__(self, other):
        """Never less. Two heap entries share a ``(time, seq)`` key only
        when one is a cancelled handle's stale entry: a keyed timer that
        moved its event may arm a fresh one at the key it left while the
        old entry is still queued. The tie then compares Events, and the
        stale entry is dropped whichever surfaces first."""
        return False

    def cancel(self):
        """Prevent the event from firing. Safe to call more than once,
        and safe to call on an event that already fired (a no-op)."""
        if self.seq > 0:
            self.seq = CANCELLED_SEQ

    @property
    def pending(self):
        """True while the event is scheduled and will still fire."""
        return self.seq > 0

    @property
    def fired(self):
        """True once the queue popped the event (until it is re-armed)."""
        return self.seq == FIRED_SEQ

    @property
    def cancelled(self):
        """True once cancelled, whether or not its heap entry was
        dropped yet."""
        return self.seq < 0

    def __repr__(self):
        state = 'fired' if self.fired else (
            'cancelled' if self.cancelled else 'pending')
        name = getattr(self.callback, '__qualname__',
                       getattr(self.callback, '__name__', repr(self.callback)))
        return '<Event t=%d %s %s>' % (self.time, name, state)


class EventQueue:
    """Priority queue of :class:`Event` objects ordered by (time, seq).

    Every push happens outside this class:
    :meth:`Simulator.after <repro.simkernel.simulation.Simulator.after>`,
    ``Simulator.rearm``, ``at_key``, ``again`` and ``again_at`` push
    onto ``_heap`` directly, and :meth:`pop` and ``Simulator.peek_key``
    drop stale heads. They depend on the ``(time, seq, event)`` entry
    layout and on ``_seq``, the count of drawn keys
    (``Simulator.reserve_seq`` draws one without a push); a change to
    either updates them too.
    """

    def __init__(self):
        self._heap = []
        self._seq = 0

    def __len__(self):
        """Number of pending events. O(heap): for diagnostics only."""
        return sum(1 for entry in self._heap if entry[2].seq > 0)

    def pop(self, until=None):
        """Remove and return the earliest live event, or None if the
        queue is empty or (with ``until``) that event is due later than
        ``until``, in which case it stays queued.

        The returned event is marked fired; the caller invokes its
        callback. Stale heads are dropped on the way, before the bound
        is compared.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            event = entry[2]
            if entry[1] == event.seq:
                if until is not None and entry[0] > until:
                    return None
                heappop(heap)
                event.seq = FIRED_SEQ
                return event
            heappop(heap)
        return None

    def peek_events(self, n):
        """The next ``n`` pending events in firing order, without
        popping.

        O(heap) — intended for diagnostics (livelock reports), not for
        the hot path.
        """
        live = sorted(entry for entry in self._heap if entry[2].seq > 0)
        return [event for __, __, event in live[:n]]
