"""Open-loop serving replicas: bounded queues fed at arrival time.

:class:`ReplicaServer` is the per-VM serving element: a bounded request
queue drained by guest worker tasks. The *dispatcher side* runs at
simulation level (:meth:`ReplicaServer.enqueue` is called from sim-event
context by the router or a standalone dispatcher), so offered load is
genuinely open-loop — arrivals keep coming no matter how stalled the
guest is, and a full queue sheds instead of applying backpressure.
Queueing delay and end-to-end latency are recorded *separately*
(:class:`~repro.metrics.latency.LatencyRecorder` each, plus the
log-bucketed ``req.queue`` / ``req.service`` histograms in the typed
registry): interference inflates the queueing component first, which is
exactly what the closed-loop workloads cannot show. The cluster-level
assembly (router + many replicas) lives in :mod:`repro.traffic.scenario`.
"""

from ..metrics.latency import LatencyRecorder
from ..obs import eventlog
from ..obs.phases import PHASE_REQ_QUEUE, PHASE_REQ_SERVICE
from ..simkernel.rng import jittered_draw
from ..simkernel.units import MS, SEC
from ..workloads.actions import Compute, QueueGet
from ..workloads.sync import BoundedQueue


class ReplicaServer:
    """One VM replica: bounded queue + guest worker tasks.

    ``slo`` (a :class:`~repro.traffic.slo.SloTracker`) receives every
    completion and shed; ``events`` (an
    :class:`~repro.obs.eventlog.EventLog`) receives rate-limited
    ``traffic.shed`` entries — at most one per ``shed_report_ns``,
    carrying the count since the previous one, so an overload burst
    cannot flood the ring.
    """

    def __init__(self, sim, kernel, name, n_workers=None,
                 service_ns=2 * MS, jitter=0.3, queue_capacity=256,
                 slo=None, events=None, shed_report_ns=100 * MS):
        self.sim = sim
        self.kernel = kernel
        self.vm = kernel.vm
        self.name = name
        self.n_workers = n_workers or len(kernel.gcpus)
        self.service_ns = service_ns
        self.jitter = jitter
        self.slo = slo
        self.events = events
        self.shed_report_ns = shed_report_ns
        self.queue = BoundedQueue(queue_capacity, name='%s.q' % name)
        self.queue_wait = LatencyRecorder('%s.qwait' % name)
        self.latency = LatencyRecorder('%s.latency' % name)
        self.enqueued = 0
        self.completed = 0
        self.shed = 0
        self.retired = False
        self.started_at = None
        self.tasks = []
        self._shed_pending = 0
        self._last_shed_report = None
        registry = sim.trace.metrics
        self._queue_hist = registry.histogram(PHASE_REQ_QUEUE)
        self._service_hist = registry.histogram(PHASE_REQ_SERVICE)

    def install(self):
        self.started_at = self.sim.now
        for i in range(self.n_workers):
            worker = self.kernel.spawn(
                '%s.w%d' % (self.name, i), self._worker_loop(i),
                gcpu_index=i % len(self.kernel.gcpus))
            self.tasks.append(worker)
        return self

    @property
    def queue_depth(self):
        return len(self.queue.items)

    # ------------------------------------------------------------------
    # Dispatcher side (sim-event context, not a guest task)
    # ------------------------------------------------------------------

    def enqueue(self, arrived_ns):
        """Inject one request at its arrival time. Hands the item
        straight to a blocked worker when one is waiting, queues it
        when there is room, sheds it otherwise. Returns True when the
        request was accepted."""
        if self.retired:
            self._shed_one()
            return False
        queue = self.queue
        if queue.get_waiters:
            # Mirror SyncEngine.do_queue_put's direct hand-off: put()
            # fills the consumer's mailbox, we clear its parked action
            # and wake it. wake_task is sim-event safe (timers use it).
            __, consumer = queue.put(None, arrived_ns)
            consumer.action = None
            self.kernel.wake_task(consumer)
        elif len(queue.items) < queue.capacity:
            queue.put(None, arrived_ns)
        else:
            self._shed_one()
            return False
        self.enqueued += 1
        return True

    def _shed_one(self):
        self.shed += 1
        self.sim.trace.count('traffic.shed')
        now = self.sim.now
        if self.slo is not None:
            self.slo.observe_shed(now)
        self._shed_pending += 1
        if self.events is not None and (
                self._last_shed_report is None
                or now - self._last_shed_report >= self.shed_report_ns):
            self.events.append(now, eventlog.EVENT_SHED,
                               replica=self.name,
                               dropped=self._shed_pending,
                               queue=len(self.queue.items))
            self._last_shed_report = now
            self._shed_pending = 0

    # ------------------------------------------------------------------
    # Guest side
    # ------------------------------------------------------------------

    def _worker_loop(self, index):
        # Bound once per worker: the service-time stream and every
        # recorder a request touches.
        sim = self.sim
        queue = self.queue
        stream = sim.rng.stream('%s.w%d' % (self.name, index))
        service_ns = self.service_ns
        jitter = self.jitter
        record_wait = self.queue_wait.record
        record_queue = self._queue_hist.record
        record_latency = self.latency.record
        record_service = self._service_hist.record
        slo = self.slo
        while True:
            arrived_at = yield QueueGet(queue)
            picked_at = sim.now
            record_wait(picked_at - arrived_at)
            record_queue(picked_at - arrived_at)
            yield Compute(jittered_draw(stream, service_ns, jitter))
            now = sim.now
            record_latency(now - arrived_at)
            record_service(now - picked_at)
            self.completed += 1
            if slo is not None:
                slo.observe(now, now - arrived_at)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def retire(self):
        """Take this replica out of service. Requests still queued can
        never complete (the guest's vCPUs go offline with the VM), so
        they are shed — honest accounting beats losing them."""
        self.retired = True
        for __ in range(len(self.queue.items)):
            self._shed_one()
        self.queue.items.clear()

    def throughput(self, now=None):
        now = self.sim.now if now is None else now
        elapsed = now - self.started_at
        if elapsed <= 0:
            return 0.0
        return self.completed / (elapsed / SEC)

    def reset_measurement(self):
        """Clear recorders and counters for steady-state measurement.
        In-queue requests stay — they are real backlog."""
        self.latency.reset()
        self.queue_wait.reset()
        self.enqueued = 0
        self.completed = 0
        self.shed = 0
        self.started_at = self.sim.now

    def __repr__(self):
        return '<ReplicaServer %s q=%d done=%d shed=%d%s>' % (
            self.name, self.queue_depth, self.completed, self.shed,
            ' retired' if self.retired else '')

