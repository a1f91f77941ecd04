"""Guest task (thread/process) model.

A task executes a *program* — an iterator of workload actions — under
the guest's CFS-like scheduler. The state machine matches what the paper
exploits:

* ``running`` — current on some guest CPU. Crucially this is *also* the
  state of a task whose vCPU was preempted by the hypervisor: the guest
  believes it is running (the semantic gap of Section 2.3), so the load
  balancer will not touch it.
* ``ready`` — enqueued on a runqueue.
* ``sleeping`` — blocked on a lock, barrier, queue, or timer.
* ``migrating`` — descheduled by the IRS context switcher and parked in
  migrator limbo (Section 3.2/3.3).
* ``exited`` — program finished.
"""

TASK_READY = 'ready'
TASK_RUNNING = 'running'
TASK_SLEEPING = 'sleeping'
TASK_MIGRATING = 'migrating'
TASK_EXITED = 'exited'

NICE_0_WEIGHT = 1024


class Task:
    """One schedulable guest thread."""

    _next_id = 0

    def __init__(self, name, program, weight=NICE_0_WEIGHT,
                 cache_footprint=1.0, on_exit=None):
        Task._next_id += 1
        self.tid = Task._next_id
        self.name = name
        self.program = iter(program)
        self._send = getattr(self.program, 'send', None)  # None: no send
        self._program_started = False
        self.weight = weight
        # Scales the cache-refill penalty paid on cross-vCPU migration;
        # memory-bound workloads set this above 1.
        self.cache_footprint = cache_footprint
        self.on_exit = on_exit

        # Execution state.
        self.state = TASK_SLEEPING
        self.action = None           # current Action, None = fetch next
        self.remaining_ns = 0        # outstanding Compute time
        self.spinning = False        # inside a pause loop on a lock
        self.mailbox = None          # item handed over by QueueGet

        # Scheduler bookkeeping.
        self.vruntime = 0
        self.gcpu = None             # gcpu where running/queued/last ran
        self.stint_ns = 0            # CPU consumed since last picked
        self.last_descheduled = 0
        self.irs_tag = False         # migrated by the IRS migrator

        # Accounting.
        self.cpu_ns = 0
        self.migrations = 0
        self.wakeups = 0
        self.started_at = None
        self.finished_at = None

    # ------------------------------------------------------------------
    # Program interaction
    # ------------------------------------------------------------------

    def next_action(self, send_value=None):
        """Fetch the next action, or None when the program is done.

        ``send_value`` is delivered into the generator (the result of a
        ``QueueGet``), so programs can write ``item = yield QueueGet(q)``.
        """
        try:
            if self._program_started and self._send is not None:
                return self._send(send_value)
            self._program_started = True
            return next(self.program)
        except StopIteration:
            return None

    # ------------------------------------------------------------------
    # vruntime
    # ------------------------------------------------------------------

    def charge(self, delta_ns):
        """Charge ``delta_ns`` of CPU to the task's accounting. The
        kernel separately decrements ``remaining_ns`` for compute
        segments (spin time burns CPU without advancing the segment).
        ``GuestKernel._checkpoint`` inlines it."""
        self.cpu_ns += delta_ns
        self.stint_ns += delta_ns
        self.vruntime += delta_ns * NICE_0_WEIGHT // self.weight

    def charge_periods(self, period_ns, count):
        """The integers of ``count`` :meth:`charge` calls of
        ``period_ns``, in one step (kept apart from :meth:`charge`, which
        runs once per event and measurably slows with a count)."""
        total = period_ns * count
        self.cpu_ns += total
        self.stint_ns += total
        self.vruntime += period_ns * NICE_0_WEIGHT // self.weight * count

    @property
    def runnable_like(self):
        """True for states the guest scheduler considers live work."""
        return self.state in (TASK_READY, TASK_RUNNING)

    def __repr__(self):
        return '<Task %s %s vrt=%d%s%s>' % (
            self.name, self.state, self.vruntime,
            ' spin' if self.spinning else '',
            ' tag' if self.irs_tag else '')
