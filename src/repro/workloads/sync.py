"""Guest-level synchronization primitives.

These are *state machines only*: they never touch the scheduler
directly. The guest kernel interprets their return values — who blocked,
who spins, who must be woken — so every sleep/wake goes through the same
kernel paths real futex/spin code would take. That separation is what
lets LHP and LWP emerge rather than being scripted.

Two families mirror the paper's workload split:

* **blocking** (pthread mutex / barrier, OpenMP passive): contended
  waiters sleep; their vCPUs may go idle — the *deceptive idleness* of
  Section 5.6;
* **spinning** (OpenMP active): contended waiters burn CPU in a pause
  loop, visible to PLE.
"""

ACQUIRED = 'acquired'
WAIT = 'wait'
SPIN = 'spin'
PASS = 'pass'


class Mutex:
    """Blocking mutual-exclusion lock (futex-like, FIFO handoff)."""

    def __init__(self, name='mutex'):
        self.name = name
        self.owner = None
        self.waiters = []
        self.contended_acquires = 0
        self.total_acquires = 0

    def acquire(self, task):
        """Returns ACQUIRED, or WAIT (caller must put ``task`` to sleep;
        ownership is handed to it on release)."""
        self.total_acquires += 1
        if self.owner is None:
            self.owner = task
            return ACQUIRED
        self.contended_acquires += 1
        self.waiters.append(task)
        return WAIT

    def release(self, task):
        """Returns the next owner to wake, or None."""
        if self.owner is not task:
            raise RuntimeError('%s released by non-owner %s'
                               % (self.name, task.name))
        if self.waiters:
            self.owner = self.waiters.pop(0)
            return self.owner
        self.owner = None
        return None


class SpinLock:
    """Spinning mutual-exclusion lock.

    ``fair=True`` models a ticket lock: strict FIFO handoff, even to a
    spinner whose vCPU is currently preempted (the LWP amplifier).
    ``fair=False`` models test-and-set: on release, a spinner whose vCPU
    is actually running wins the race; a preempted spinner can only win
    when no running spinner exists.
    """

    def __init__(self, name='spinlock', fair=False):
        self.name = name
        self.fair = fair
        self.owner = None
        self.spinners = []
        self.contended_acquires = 0
        self.total_acquires = 0

    def acquire(self, task):
        """Returns ACQUIRED, or SPIN (caller marks ``task`` spinning)."""
        self.total_acquires += 1
        if self.owner is None:
            self.owner = task
            return ACQUIRED
        self.contended_acquires += 1
        self.spinners.append(task)
        return SPIN

    def release(self, task, running_predicate=None):
        """Returns the spinner granted ownership, or None.

        ``running_predicate(task) -> bool`` tells an unfair lock which
        spinners are actually executing their pause loop right now.
        """
        if self.owner is not task:
            raise RuntimeError('%s released by non-owner %s'
                               % (self.name, task.name))
        if not self.spinners:
            self.owner = None
            return None
        grantee = None
        if not self.fair and running_predicate is not None:
            for candidate in self.spinners:
                if running_predicate(candidate):
                    grantee = candidate
                    break
        if grantee is None:
            grantee = self.spinners[0]
        self.spinners.remove(grantee)
        self.owner = grantee
        return grantee


class Barrier:
    """Group synchronization for ``parties`` tasks.

    ``mode='block'`` puts early arrivals to sleep; ``mode='spin'`` makes
    them pause-loop until the last arrival.
    """

    def __init__(self, parties, name='barrier', mode='block'):
        if parties < 1:
            raise ValueError('parties must be >= 1')
        if mode not in ('block', 'spin'):
            raise ValueError("mode must be 'block' or 'spin'")
        self.parties = parties
        self.name = name
        self.mode = mode
        self.waiting = []
        self.generation = 0
        self.crossings = 0

    def wait(self, task):
        """Returns ``(PASS, released_tasks)`` for the last arrival (the
        caller wakes/unspins ``released_tasks``), or ``(WAIT, None)`` /
        ``(SPIN, None)`` for early arrivals per the mode."""
        if len(self.waiting) + 1 == self.parties:
            released = self.waiting
            self.waiting = []
            self.generation += 1
            self.crossings += 1
            return PASS, released
        self.waiting.append(task)
        return (WAIT if self.mode == 'block' else SPIN), None


class BoundedQueue:
    """Bounded producer/consumer queue (pipeline parallelism).

    Blocking semantics on both ends, like the hand-over queues between
    dedup/ferret pipeline stages.
    """

    def __init__(self, capacity, name='queue'):
        if capacity < 1:
            raise ValueError('capacity must be >= 1')
        self.capacity = capacity
        self.name = name
        self.items = []
        self.put_waiters = []      # (task, item) blocked producers
        self.get_waiters = []      # tasks blocked consumers
        self.total_put = 0

    def put(self, task, item):
        """Returns ``(PASS, consumer_to_wake)`` or ``(WAIT, None)``."""
        if self.get_waiters:
            # Hand the item directly to a blocked consumer.
            consumer = self.get_waiters.pop(0)
            consumer.mailbox = item
            self.total_put += 1
            return PASS, consumer
        if len(self.items) < self.capacity:
            self.items.append(item)
            self.total_put += 1
            return PASS, None
        self.put_waiters.append((task, item))
        return WAIT, None

    def get(self, task):
        """Returns ``(PASS, item, producer_to_wake)`` or
        ``(WAIT, None, None)``. A woken producer's deferred item is
        appended as part of this call."""
        if self.items:
            item = self.items.pop(0)
            producer = None
            if self.put_waiters:
                producer, deferred = self.put_waiters.pop(0)
                self.items.append(deferred)
                self.total_put += 1
            return PASS, item, producer
        self.get_waiters.append(task)
        return WAIT, None, None
