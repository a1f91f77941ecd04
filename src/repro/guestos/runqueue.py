"""Per-vCPU CFS runqueue: ready tasks ordered by virtual runtime."""

from bisect import insort

from .task import TASK_READY


class RunQueue:
    """Holds READY tasks, sorted by (vruntime, tid).

    The currently running task is *not* in the queue — it is
    ``gcpu.current``. That mirrors Linux and matters for the paper's
    second semantic gap: balancing code that scans runqueues simply
    never sees the "running" task of a preempted vCPU.
    """

    def __init__(self, gcpu):
        self.gcpu = gcpu
        self._entries = []           # sorted (vruntime, tid, task)
        self.min_vruntime = 0

    def __len__(self):
        return len(self._entries)

    @property
    def nr_ready(self):
        return len(self._entries)

    def enqueue(self, task):
        """Add a READY task."""
        if task.state != TASK_READY:
            raise RuntimeError('enqueue of %s in state %s'
                               % (task.name, task.state))
        insort(self._entries, (task.vruntime, task.tid, task))

    def dequeue(self, task):
        """Remove a specific task (it must be present)."""
        for i, (__, __, candidate) in enumerate(self._entries):
            if candidate is task:
                del self._entries[i]
                return
        raise RuntimeError('%s not on runqueue of %s'
                           % (task.name, self.gcpu.name))

    def peek_min(self):
        """The ready task with the smallest vruntime, or None."""
        return self._entries[0][2] if self._entries else None

    def pop_min(self):
        """Remove and return the smallest-vruntime task, or None."""
        if not self._entries:
            return None
        __, __, task = self._entries.pop(0)
        return task

    def min_ready_vruntime(self):
        """vruntime of the leftmost ready task, or None."""
        return self._entries[0][0] if self._entries else None

    def tasks(self):
        """Snapshot list of queued tasks, leftmost first."""
        return [task for (__, __, task) in self._entries]

    def update_min_vruntime(self, current):
        """Advance the monotonic ``min_vruntime`` floor (used to place
        waking tasks fairly)."""
        entries = self._entries
        if current is not None:
            floor = current.vruntime
            if entries and entries[0][0] < floor:
                floor = entries[0][0]
        elif entries:
            floor = entries[0][0]
        else:
            return
        if floor > self.min_vruntime:
            self.min_vruntime = floor
