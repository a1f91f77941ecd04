"""Vanilla-Linux task migration (``migration_cpu_stop`` equivalent).

Migrating the *currently running* task of a CPU requires the stopper
thread to run **on that CPU**: it preempts the task, moves it, and kicks
the destination. When the host vCPU has been preempted by the
hypervisor, the stop work can only execute once the vCPU is scheduled
again — which is exactly why Figure 1(b)'s migration latency grows by
one Xen time slice per co-located VM.

This module also provides the measurement probe used to regenerate that
figure.
"""

from ..simkernel.units import MS, US
from .task import TASK_READY, TASK_RUNNING

# Cost of waking the stopper thread, two context switches, and runqueue
# lock handoff when the source vCPU is already running (the ~1 ms
# "alone" baseline of Figure 1(b)).
DEFAULT_STOPPER_LATENCY_NS = 1 * MS
# Extra cost once a previously preempted vCPU finally runs the stopper.
DEFAULT_RESUME_OVERHEAD_NS = 100 * US


class MigrationRequest:
    """One in-flight ``__migrate_task`` request."""

    def __init__(self, task, dest_gcpu, issued_at, on_complete):
        self.task = task
        self.dest_gcpu = dest_gcpu
        self.issued_at = issued_at
        self.on_complete = on_complete
        self.completed_at = None

    @property
    def latency_ns(self):
        if self.completed_at is None:
            return None
        return self.completed_at - self.issued_at


class MigrationStopper:
    """Executes migration requests with stock-Linux semantics."""

    def __init__(self, sim, kernel,
                 stopper_latency_ns=DEFAULT_STOPPER_LATENCY_NS,
                 resume_overhead_ns=DEFAULT_RESUME_OVERHEAD_NS):
        self.sim = sim
        self.kernel = kernel
        self.stopper_latency_ns = stopper_latency_ns
        self.resume_overhead_ns = resume_overhead_ns
        self.completed = []

    def request(self, task, dest_gcpu, on_complete=None):
        """Migrate ``task`` to ``dest_gcpu`` the way vanilla Linux would.
        Returns the :class:`MigrationRequest` (poll ``latency_ns``)."""
        request = MigrationRequest(task, dest_gcpu, self.sim.now, on_complete)
        source = task.gcpu
        if task.state == TASK_READY:
            # Fast path: a queued task moves without the stopper.
            self.sim.after(self.resume_overhead_ns,
                           self._finish_ready, request)
        elif task.state == TASK_RUNNING and source is not None:
            if source.run_started_at is not None:
                # The source vCPU is running: the stopper just needs to
                # be woken and switched to.
                self.sim.after(self.stopper_latency_ns,
                               self._run_stop_work, request)
            else:
                # The source vCPU is preempted. The stop work can only
                # run when the hypervisor schedules the vCPU again; it
                # is queued as dispatch-time pending work.
                source.pending_work.append(
                    lambda: self._stop_work_at_dispatch(request))
        else:
            raise RuntimeError('cannot migrate %s in state %s'
                               % (task.name, task.state))
        return request

    # ------------------------------------------------------------------

    def _finish_ready(self, request):
        task = request.task
        if task.state != TASK_READY:
            return  # it ran or slept meanwhile; treat as abandoned
        self.kernel.pull_task(task, request.dest_gcpu)
        self._complete(request)

    def _run_stop_work(self, request):
        """Stopper executing on a running source vCPU."""
        task = request.task
        source = task.gcpu
        if not (task.state == TASK_RUNNING and source is not None
                and source.current is task):
            return
        self._deschedule_and_move(request)

    def _stop_work_at_dispatch(self, request):
        """Deferred stop work, now running because the vCPU came back."""
        task = request.task
        source = task.gcpu
        if not (task.state == TASK_RUNNING and source is not None
                and source.current is task):
            return
        self.sim.after(self.resume_overhead_ns,
                       self._run_stop_work, request)

    def _deschedule_and_move(self, request):
        task = request.task
        source = task.gcpu
        kernel = self.kernel
        kernel._checkpoint(source, self.sim.now)
        kernel.ticks.cancel_quantum(source)
        if task.spinning:
            kernel.machine.notify_spin_stop(source.vcpu)
        task.state = TASK_READY
        task.last_descheduled = self.sim.now
        source.current = None
        source.rq.enqueue(task)
        kernel.pull_task(task, request.dest_gcpu)
        # Kick the destination vCPU if it idles.
        dest_vcpu = request.dest_gcpu.vcpu
        if dest_vcpu.is_blocked:
            kernel.machine.wake_vcpu(dest_vcpu)
        self._complete(request)
        kernel._schedule(source)

    def _complete(self, request):
        request.completed_at = self.sim.now
        self.completed.append(request)
        self.sim.trace.count('guest.stopper_migrations')
        if request.on_complete is not None:
            request.on_complete(request)
