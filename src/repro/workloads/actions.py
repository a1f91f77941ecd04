"""Primitive actions a guest task can perform.

A workload *program* is an iterator of these actions; the guest kernel
interprets them one at a time. ``Compute`` is the only action that
consumes simulated CPU time by itself — synchronization actions resolve
instantly into either progress, sleeping, or spinning.
"""


class Action:
    """Base class for program actions."""

    __slots__ = ()


class Compute(Action):
    """Burn ``duration_ns`` of CPU time."""

    __slots__ = ('duration_ns',)

    def __init__(self, duration_ns):
        if duration_ns < 0:
            raise ValueError('compute duration must be >= 0')
        self.duration_ns = int(duration_ns)

    def __repr__(self):
        return 'Compute(%d)' % self.duration_ns


class Acquire(Action):
    """Acquire a lock (blocking mutex or spinlock, per the lock)."""

    __slots__ = ('lock',)

    def __init__(self, lock):
        self.lock = lock

    def __repr__(self):
        return 'Acquire(%s)' % self.lock.name


class Release(Action):
    """Release a lock previously acquired."""

    __slots__ = ('lock',)

    def __init__(self, lock):
        self.lock = lock

    def __repr__(self):
        return 'Release(%s)' % self.lock.name


class BarrierWait(Action):
    """Wait at a barrier until all parties arrive."""

    __slots__ = ('barrier',)

    def __init__(self, barrier):
        self.barrier = barrier

    def __repr__(self):
        return 'BarrierWait(%s)' % self.barrier.name


class QueuePut(Action):
    """Put one item into a bounded queue (blocks when full)."""

    __slots__ = ('queue', 'item')

    def __init__(self, queue, item=None):
        self.queue = queue
        self.item = item

    def __repr__(self):
        return 'QueuePut(%s)' % self.queue.name


class QueueGet(Action):
    """Take one item from a bounded queue (blocks when empty)."""

    __slots__ = ('queue',)

    def __init__(self, queue):
        self.queue = queue

    def __repr__(self):
        return 'QueueGet(%s)' % self.queue.name


class Sleep(Action):
    """Sleep for ``duration_ns`` of wall-clock (simulated) time."""

    __slots__ = ('duration_ns',)

    def __init__(self, duration_ns):
        if duration_ns <= 0:
            raise ValueError('sleep duration must be > 0')
        self.duration_ns = int(duration_ns)

    def __repr__(self):
        return 'Sleep(%d)' % self.duration_ns

